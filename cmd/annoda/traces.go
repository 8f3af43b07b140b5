package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// tracesCmd implements `annoda traces`: fetch a running server's
// /api/debug/traces rings and render them as a compact per-request stage
// breakdown — the operator's answer to "where did the time go" without
// attaching a profiler.
func tracesCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("traces", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8077", "server base URL")
	slow := fs.Bool("slow", false, "show the slow-trace ring instead of the recent ring")
	limit := fs.Int("n", 20, "show at most this many traces")
	spans := fs.Bool("spans", true, "show per-stage spans under each trace")
	opFilter := fs.String("op", "", "only show traces with this op (e.g. http, refresh)")
	jsonOut := fs.Bool("json", false, "dump the raw /api/debug/traces payload")
	if err := fs.Parse(args); err != nil {
		return err
	}

	target := strings.TrimRight(*base, "/") + "/api/debug/traces"
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("GET %s: HTTP %d", target, resp.StatusCode)
	}

	var payload struct {
		SlowThresholdMicros int64           `json:"slow_threshold_micros"`
		Recent              []obs.TraceView `json:"recent"`
		Slow                []obs.TraceView `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return fmt.Errorf("decode %s: %v", target, err)
	}
	if *jsonOut {
		out, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(out))
		return nil
	}

	ring, label := payload.Recent, "recent"
	if *slow {
		ring, label = payload.Slow, "slow"
	}
	shown := ring
	if *opFilter != "" {
		shown = shown[:0:0]
		for _, tv := range ring {
			if tv.Op == *opFilter {
				shown = append(shown, tv)
			}
		}
	}
	if *limit > 0 && len(shown) > *limit {
		shown = shown[:*limit]
	}
	fmt.Fprintf(w, "%s traces: %d shown of %d (slow threshold %s)\n",
		label, len(shown), len(ring), microsString(payload.SlowThresholdMicros))
	for _, tv := range shown {
		printTrace(w, tv, *spans)
	}
	return nil
}

func printTrace(w io.Writer, tv obs.TraceView, withSpans bool) {
	line := fmt.Sprintf("%s  %-8s %8s  %s",
		tv.ID, tv.Op, microsString(tv.DurMicros), tv.Detail)
	if tv.Err != "" {
		line += "  ERR " + tv.Err
	}
	fmt.Fprintln(w, strings.TrimRight(line, " "))
	if !withSpans {
		return
	}
	// Spans print in recorded (start) order; a stable sort by offset keeps
	// nested stages readable when goroutines interleaved their recording.
	spans := append([]obs.SpanView(nil), tv.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].OffsetMicros < spans[j].OffsetMicros })
	for _, sp := range spans {
		note := sp.Note
		if note != "" {
			note = "  " + note
		}
		fmt.Fprintf(w, "    +%-9s %-16s %8s%s\n",
			microsString(sp.OffsetMicros), sp.Stage, microsString(sp.DurMicros), note)
	}
}

// microsString renders a microsecond count with a human unit: µs under a
// millisecond, ms under a second, s beyond.
func microsString(us int64) string {
	switch {
	case us < 1000:
		return fmt.Sprintf("%dµs", us)
	case us < 1_000_000:
		return fmt.Sprintf("%.2fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.3fs", float64(us)/1_000_000)
	}
}
