package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// watchCmd implements `annoda watch`: subscribe to a running server's
// /api/watch change feed and print each event as it arrives. It is a plain
// SSE client — one GET, one long-lived connection — so it also doubles as
// a smoke test that the server's stream actually flushes incrementally.
func watchCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8077", "server base URL")
	concepts := fs.String("concepts", "", "comma-separated concept filter (empty = all)")
	query := fs.String("query", "", "Lorel source for a standing query pushed on change")
	summary := fs.Bool("summary", false, "include the encoded ChangeSet in change events")
	after := fs.Uint64("after", 0, "resume after this feed sequence number")
	buffer := fs.Int("buffer", 0, "server-side event buffer (0 = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := url.Values{}
	if *concepts != "" {
		params.Set("concepts", *concepts)
	}
	if *query != "" {
		params.Set("query", *query)
	}
	if *summary {
		params.Set("summary", "1")
	}
	if *after > 0 {
		params.Set("after", fmt.Sprint(*after))
	}
	if *buffer > 0 {
		params.Set("buffer", fmt.Sprint(*buffer))
	}
	target := strings.TrimRight(*base, "/") + "/api/watch"
	if len(params) > 0 {
		target += "?" + params.Encode()
	}

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
	fmt.Fprintf(w, "watching %s (ctrl-c to stop)\n", target)

	// Minimal SSE parse: comments keep the connection visibly alive,
	// id/event/data triples become one printed line per event.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var id, event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || data != "" {
				printWatchEvent(w, id, event, data)
				id, event, data = "", "", ""
			}
		case strings.HasPrefix(line, ": heartbeat"):
			// quiet keep-alive
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream ended: %v", err)
	}
	return fmt.Errorf("server closed the stream")
}

// printWatchEvent renders one feed event on a single line, decoding the
// JSON payload when it parses and falling back to the raw bytes.
func printWatchEvent(w io.Writer, id, event, data string) {
	var ev struct {
		Seq         uint64   `json:"seq"`
		Source      string   `json:"source"`
		Concepts    []string `json:"concepts"`
		Fingerprint string   `json:"fingerprint"`
		Upserted    int      `json:"upserted"`
		Deleted     int      `json:"deleted"`
		Lost        uint64   `json:"lost"`
		Query       string   `json:"query"`
		Answers     int      `json:"answers"`
		Text        string   `json:"text"`
		Initial     bool     `json:"initial"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		fmt.Fprintf(w, "seq %s %-8s %s\n", id, event, data)
		return
	}
	switch event {
	case "change":
		fmt.Fprintf(w, "seq %d change   %s -> %s: +%d/-%d (epoch %s)\n",
			ev.Seq, ev.Source, strings.Join(ev.Concepts, ","), ev.Upserted, ev.Deleted, ev.Fingerprint)
	case "rebuild":
		fmt.Fprintf(w, "seq %d rebuild  %s: full re-fusion, all cached views invalid (epoch %s)\n",
			ev.Seq, ev.Source, ev.Fingerprint)
	case "overflow":
		fmt.Fprintf(w, "seq %d overflow lost %d event(s); resync from epoch %s\n",
			ev.Seq, ev.Lost, ev.Fingerprint)
	case "answer":
		label := "changed"
		if ev.Initial {
			label = "baseline"
		}
		fmt.Fprintf(w, "seq %d answer   %s: %d answer(s) [%s]\n", ev.Seq, ev.Query, ev.Answers, label)
		if ev.Text != "" {
			for _, l := range strings.Split(strings.TrimRight(ev.Text, "\n"), "\n") {
				fmt.Fprintf(w, "    %s\n", l)
			}
		}
	default:
		fmt.Fprintf(w, "seq %s %-8s %s\n", id, event, data)
	}
}
