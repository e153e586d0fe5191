package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// wrote.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	runErr := <-errc
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	return string(buf[:n])
}

// tinyArgs is the cheapest valid sampling configuration.
var tinyArgs = []string{"-samples", "40", "-trials", "40", "-closed-trials", "1", "-traces", "2"}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run("bogus", nil); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRunModelSubcommand(t *testing.T) {
	out := capture(t, func() error { return run("model", []string{"-c", "8", "-w", "71"}) })
	if !strings.Contains(out, "14114800") {
		t.Errorf("model output missing the paper's 14.1M-entry anchor:\n%s", out)
	}
}

func TestRunSizingSubcommand(t *testing.T) {
	out := capture(t, func() error { return run("sizing", tinyArgs) })
	if !strings.Contains(out, "50410") || !strings.Contains(out, "birthday") {
		t.Errorf("sizing output incomplete:\n%s", out)
	}
}

func TestRunFig4Tiny(t *testing.T) {
	out := capture(t, func() error { return run("fig4", tinyArgs) })
	if !strings.Contains(out, "Figure 4(a)") || !strings.Contains(out, "Figure 4(b)") {
		t.Errorf("fig4 output incomplete:\n%s", out)
	}
}

func TestRunFig5CSV(t *testing.T) {
	out := capture(t, func() error { return run("fig5", append([]string{"-csv"}, tinyArgs...)) })
	if !strings.Contains(out, "# Figure 5(a)") || !strings.Contains(out, ",") {
		t.Errorf("fig5 CSV output incomplete:\n%s", out)
	}
}

func TestRunIsolationTiny(t *testing.T) {
	out := capture(t, func() error { return run("isolation", tinyArgs) })
	if !strings.Contains(out, "strong isolation") {
		t.Errorf("isolation output incomplete:\n%s", out)
	}
}

func TestRunScaleSubcommand(t *testing.T) {
	out := capture(t, func() error {
		return run("scale", append([]string{"-scale-txns", "25"}, tinyArgs...))
	})
	for _, want := range []string{"transactions/sec", "abort rate", "sharded/tagged", "GOMAXPROCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSTMSubcommand(t *testing.T) {
	out := capture(t, func() error {
		return run("stm", []string{"-threads", "2", "-writes", "4", "-entries", "512", "-txns", "20"})
	})
	if !strings.Contains(out, "tagless") || !strings.Contains(out, "tagged") {
		t.Errorf("stm output incomplete:\n%s", out)
	}
}

func TestRunBenchSubcommandJSON(t *testing.T) {
	out := capture(t, func() error {
		return run("bench", []string{"-json", "-serial-ops", "200", "-contended-ops", "50"})
	})
	var rep struct {
		Schema  int `json:"schema"`
		Results []struct {
			Workload    string  `json:"workload"`
			Kind        string  `json:"kind"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
			AbortRate   float64 `json:"abort_rate"`
			Commits     uint64  `json:"commits"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bench -json emitted invalid JSON: %v\n%s", err, out)
	}
	// 3 serial + 4 serial-cm + 4 cmabort + 3x2 serial-ro + 3x2 skiplist
	// + 3 contended.
	if rep.Schema != 1 || len(rep.Results) != 26 {
		t.Fatalf("bench report shape: schema=%d results=%d, want 1/26", rep.Schema, len(rep.Results))
	}
	kinds := map[string]bool{}
	for _, r := range rep.Results {
		kinds[r.Workload+"/"+r.Kind] = true
		if r.NsPerOp <= 0 {
			t.Errorf("%s/%s: ns_per_op=%v", r.Workload, r.Kind, r.NsPerOp)
		}
		// cmabort rows invoke the policy directly and run no transactions.
		if !strings.HasPrefix(r.Workload, "cmabort") && r.Commits == 0 {
			t.Errorf("%s/%s: commits=%d", r.Workload, r.Kind, r.Commits)
		}
	}
	for _, want := range []string{
		"serial/tagless", "serial/tagged", "serial/sharded", "contended/sharded",
		"serial-cm-backoff/tagged", "serial-cm-adaptive/tagged",
		"serial-cm-timestamp/tagged", "serial-cm-switching/tagged",
		"cmabort-backoff/cm", "cmabort-timestamp/cm", "cmabort-switching/cm",
		"serial-ro-acquire/tagless", "serial-ro-invisible/tagless",
		"serial-ro-acquire/tagged", "serial-ro-invisible/tagged",
		"serial-ro-acquire/sharded", "serial-ro-invisible/sharded",
		"serial-skiplist/tagless", "serial-skiplist-scan/tagless",
		"serial-skiplist/tagged", "serial-skiplist-scan/tagged",
		"serial-skiplist/sharded", "serial-skiplist-scan/sharded",
	} {
		if !kinds[want] {
			t.Errorf("bench report missing %s", want)
		}
	}
}

func TestRunBenchSubcommandTable(t *testing.T) {
	out := capture(t, func() error {
		return run("bench", []string{"-serial-ops", "200", "-contended-ops", "50"})
	})
	for _, want := range []string{"ns/op", "allocs/op", "abort rate", "sharded"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench table output missing %q:\n%s", want, out)
		}
	}
}

func TestHelp(t *testing.T) {
	if err := run("help", nil); err != nil {
		t.Fatalf("help returned error: %v", err)
	}
}

// TestDispatchTableComplete proves every name in subcommands() actually
// dispatches: run(name, -h) must reach that subcommand's flag parsing and
// come back with flag.ErrHelp (an unknown name returns the "unknown
// subcommand" error instead). A subcommand added to the switch but not to
// subcommands() — or vice versa — fails here.
func TestDispatchTableComplete(t *testing.T) {
	for _, name := range subcommands() {
		if err := run(name, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("run(%q, -h) = %v, want flag.ErrHelp", name, err)
		}
	}
	err := run("bogus", []string{"-h"})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("unknown subcommand returned %v", err)
	}
}

// TestUsageListsEverySubcommand keeps the usage text in lock-step with the
// dispatch table, so a future subcommand can't ship undocumented.
func TestUsageListsEverySubcommand(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	for _, name := range subcommands() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("usage text does not mention subcommand %q", name)
		}
	}
}

// TestRunLoadFlagErrors pins the load subcommand's argument validation:
// unknown flags fail at parse, bad values fail at scenario validation.
func TestRunLoadFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-rate", "-5"},
		{"-struct", "btree"},
		{"-table", "cuckoo"},
		{"-cm", "polite"},
		{"-arrival", "bursty"},
		{"-mean-ops", "0.5"},
		{"-bits", "99"},
		{"-entries", "3"},
	}
	for _, args := range cases {
		if err := run("load", append([]string{"-virtual", "-ops", "10"}, args...)); err == nil {
			t.Errorf("load %v accepted", args)
		}
	}
}

// loadTestArgs is a cheap deterministic load sweep: 4 structures x 5
// policies plus the read-mostly and scan companion sweeps, 300 transactions
// each, on the virtual clock.
var loadTestArgs = []string{"-json", "-virtual", "-ops", "300", "-keys", "64"}

// TestRunLoadSubcommandJSON pins the shape of `tmbp load -json`: a
// schema-versioned envelope with one row per structure x CM policy, each
// carrying throughput and monotone latency quantiles.
func TestRunLoadSubcommandJSON(t *testing.T) {
	out := capture(t, func() error { return run("load", loadTestArgs) })
	var rep struct {
		Schema int `json:"schema"`
		Rows   []struct {
			Struct        string  `json:"struct"`
			Table         string  `json:"table"`
			CM            string  `json:"cm"`
			Virtual       bool    `json:"virtual"`
			Ops           int     `json:"ops"`
			ThroughputTPS float64 `json:"throughput_tps"`
			P50           int64   `json:"p50_ns"`
			P99           int64   `json:"p99_ns"`
			P999          int64   `json:"p999_ns"`
			Max           int64   `json:"max_ns"`
			Commits       uint64  `json:"commits"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("load -json emitted invalid JSON: %v\n%s", err, out)
	}
	// 4 structures x 4 policies, plus the read-mostly hashmap and scan-heavy
	// skiplist companion sweeps: 4 policies x {acquiring, invisible} each.
	if rep.Schema != 1 || len(rep.Rows) != 32 {
		t.Fatalf("load report shape: schema=%d rows=%d, want 1/32", rep.Schema, len(rep.Rows))
	}
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		seen[r.Struct+"/"+r.CM] = true
		if !r.Virtual || r.Ops != 300 {
			t.Errorf("%s/%s: virtual=%v ops=%d", r.Struct, r.CM, r.Virtual, r.Ops)
		}
		if r.ThroughputTPS <= 0 || r.Commits < 300 {
			t.Errorf("%s/%s: throughput=%v commits=%d", r.Struct, r.CM, r.ThroughputTPS, r.Commits)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 || r.P999 > r.Max {
			t.Errorf("%s/%s: quantiles not monotone: %d/%d/%d/%d",
				r.Struct, r.CM, r.P50, r.P99, r.P999, r.Max)
		}
	}
	for _, structName := range []string{"hashmap", "list", "queue", "skiplist"} {
		for _, cm := range []string{"backoff", "adaptive", "timestamp", "switching"} {
			if !seen[structName+"/"+cm] {
				t.Errorf("load report missing row %s/%s", structName, cm)
			}
		}
	}
}

// TestRunLoadJSONDeterministic is the CLI-level determinism contract the
// CI gate relies on: two -virtual runs of the same seed emit byte-
// identical output.
func TestRunLoadJSONDeterministic(t *testing.T) {
	a := capture(t, func() error { return run("load", loadTestArgs) })
	b := capture(t, func() error { return run("load", loadTestArgs) })
	if a != b {
		t.Fatalf("virtual reruns differ:\n%s\n---\n%s", a, b)
	}
}

// TestRunLoadSubcommandTable smoke-tests the human-readable rendering.
func TestRunLoadSubcommandTable(t *testing.T) {
	out := capture(t, func() error {
		return run("load", []string{"-virtual", "-ops", "200", "-keys", "64", "-struct", "hashmap", "-cm", "backoff"})
	})
	for _, want := range []string{"p999", "abort rate", "hashmap", "open loop"} {
		if !strings.Contains(out, want) {
			t.Errorf("load table output missing %q:\n%s", want, out)
		}
	}
}
