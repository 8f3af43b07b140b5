package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// sourcesCmd implements `annoda sources`: fetch a running server's /readyz
// verdict and render the per-source health table — breaker state, failure
// streaks, retry/probe counters and epoch membership — the operator's
// answer to "which sources is the mediator actually serving from".
func sourcesCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sources", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8077", "server base URL")
	jsonOut := fs.Bool("json", false, "dump the raw /readyz payload")
	if err := fs.Parse(args); err != nil {
		return err
	}

	target := strings.TrimRight(*base, "/") + "/readyz"
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// /readyz answers 503 when down (that is its job); the body is the
	// health view either way, so keep rendering.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("GET %s: HTTP %d", target, resp.StatusCode)
	}

	var payload struct {
		Status  string `json:"status"`
		Sources []struct {
			Source              string `json:"source"`
			State               string `json:"state"`
			ConsecutiveFailures int    `json:"consecutive_failures"`
			Successes           uint64 `json:"successes"`
			Failures            uint64 `json:"failures"`
			Retries             uint64 `json:"retries"`
			Probes              uint64 `json:"probes"`
			BreakerOpens        uint64 `json:"breaker_opens"`
			LastError           string `json:"last_error"`
			MissingFromEpoch    bool   `json:"missing_from_epoch"`
		} `json:"sources"`
	}
	body := json.NewDecoder(resp.Body)
	if err := body.Decode(&payload); err != nil {
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

	fmt.Fprintf(w, "readiness: %s (HTTP %d)\n", payload.Status, resp.StatusCode)
	fmt.Fprintf(w, "%-12s %-9s %-6s %9s %9s %8s %7s %6s  %s\n",
		"SOURCE", "STATE", "EPOCH", "SUCCESSES", "FAILURES", "RETRIES", "PROBES", "OPENS", "LAST ERROR")
	for _, s := range payload.Sources {
		epoch := "in"
		if s.MissingFromEpoch {
			epoch = "OUT"
		}
		state := s.State
		if s.ConsecutiveFailures > 0 {
			state = fmt.Sprintf("%s(%d)", s.State, s.ConsecutiveFailures)
		}
		lastErr := s.LastError
		if len(lastErr) > 48 {
			lastErr = lastErr[:45] + "..."
		}
		fmt.Fprintf(w, "%-12s %-9s %-6s %9d %9d %8d %7d %6d  %s\n",
			s.Source, state, epoch, s.Successes, s.Failures, s.Retries, s.Probes, s.BreakerOpens, lastErr)
	}
	return nil
}
