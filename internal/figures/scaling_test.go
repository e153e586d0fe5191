package figures

import (
	"strconv"
	"strings"
	"testing"
)

func TestScaleSmoke(t *testing.T) {
	o := tiny()
	tables, err := Scale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("Scale returned %d tables, want org throughput/aborts + CM throughput/aborts/tail", len(tables))
	}
	out := renderAll(t, tables)
	for _, want := range []string{
		"Scaling: committed transactions/sec", "Scaling: abort rate",
		"tagless", "tagged", "sharded", "sharded/tagged", "GOMAXPROCS",
		"Scaling: contended committed txns/sec by CM policy",
		"Scaling: contended abort rate by CM policy",
		"Scaling: contended max consecutive aborts by CM policy",
		"backoff", "adaptive", "timestamp", "switching",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One row per goroutine count in each table.
	for _, g := range ScaleGoroutines {
		if !strings.Contains(out, strconv.Itoa(g)) {
			t.Errorf("output missing goroutine count %d", g)
		}
	}
}

func TestScaleValidatesOptions(t *testing.T) {
	o := tiny()
	o.ScaleTxns = 0
	if _, err := Scale(o); err == nil {
		t.Fatal("zero ScaleTxns accepted")
	}
	o = tiny()
	o.Hash = "bogus"
	if _, err := Scale(o); err == nil {
		t.Fatal("unknown hash accepted")
	}
}

// TestScaleFallbackTable checks that enabling the serial fallback adds the
// fallback-commits table and annotates it with the escalation threshold.
func TestScaleFallbackTable(t *testing.T) {
	o := tiny()
	o.FallbackAfter = 4
	tables, err := Scale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("Scale with FallbackAfter returned %d tables, want 6 (fallback-commits added)", len(tables))
	}
	out := renderAll(t, tables)
	for _, want := range []string{
		"Scaling: contended serial-fallback commits by CM policy",
		"FallbackAfter=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
