package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// runShort runs one workload in short mode and fails the test on any
// failed operation.
func runShort(t *testing.T, name string, trace bool) *result {
	t.Helper()
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		res, err := w.run(config{seed: 1, seconds: 0.2, trace: trace, short: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
		}
		return res
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return b
}

// TestWorkloadsShort runs every workload in short mode, untraced and
// traced, and checks each reports exactly the metrics BENCHMARK.json names.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runShort(t, w.name, false)
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			res = runShort(t, w.name, true)
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// TestTracedLayersAccount checks the traced kv-point run's layer times are
// there and cover the transaction: begin, commit and the tmds calls.
func TestTracedLayersAccount(t *testing.T) {
	res := runShort(t, "kv-point", true)
	for _, name := range []string{"tmds.get_ns", "tmds.put_ns", "stm.begin_ns", "stm.commit_ns",
		"txn.footprint_blocks_mean", "otable.acquires_per_commit", "tracing.traced_op_mean_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["stm.aborts"].Value; v != 0 {
		t.Errorf("stm.aborts = %v on a single client, want 0", v)
	}
	if v := res.Metrics["txn.footprint_blocks_max"].Value; v > 16 {
		t.Errorf("footprint reached %v blocks, beyond the access set's inline region", v)
	}
}

func TestMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "kv-point", "--trace", "2"},
		{"--workload", "kv-point", "--seconds", "0"},
		{"--workload", "kv-point", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := mainExit(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestResultIsLastLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 3}
	res.set("setup_s", 0.25, "s")
	var out bytes.Buffer
	printResult(&out, "kv-point", res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !got.Correct || got.Attempted != 3 || got.Metrics["setup_s"] != (metric{0.25, "s"}) {
		t.Errorf("round trip gave %+v", got)
	}
}

// The checks below are each fed a corrupted output and must fire.

func TestKVChecksFire(t *testing.T) {
	if err := checkKVRead(7, 10, 10, true); err != nil {
		t.Fatalf("a matching read failed: %v", err)
	}
	if checkKVRead(7, 10, 11, true) == nil {
		t.Error("a read off by one passed")
	}
	if checkKVRead(7, 10, 10, false) == nil {
		t.Error("a missing key passed")
	}
	model := []uint64{1, 2, 3}
	if err := checkKVFinal(model, []uint64{1, 2, 3}, []bool{true, true, true}, 3); err != nil {
		t.Fatalf("matching final contents failed: %v", err)
	}
	if checkKVFinal(model, []uint64{1, 3, 3}, []bool{true, true, true}, 3) == nil {
		t.Error("a wrong tally passed")
	}
	if checkKVFinal(model, []uint64{1, 2, 3}, []bool{true, true, true}, 4) == nil {
		t.Error("a wrong Len passed")
	}
	if checkZero("occupied entries", 1) == nil {
		t.Error("a leaked table entry passed")
	}
}

// scanFixture is a small layout with its true contents, for feeding
// checkScan corrupted scans.
func scanFixture(t *testing.T) (*scanLayout, *churnModel, []uint64, []uint64) {
	t.Helper()
	l, _ := genScan(scanShort, 3)
	m := newChurnModel(l, 0)
	var ks, vs []uint64
	for k := 0; k < 64; k++ {
		if l.initPresent[k] {
			ks, vs = append(ks, uint64(k)), append(vs, l.initVal[k])
		}
	}
	if err := l.checkScan(m, 0, 63, ks, vs); err != nil {
		t.Fatalf("the true scan failed: %v", err)
	}
	return l, m, ks, vs
}

func TestScanChecksFire(t *testing.T) {
	l, m, ks, vs := scanFixture(t)
	corrupt := func(name string, f func(ks, vs []uint64) ([]uint64, []uint64)) {
		t.Helper()
		k2, v2 := f(slices.Clone(ks), slices.Clone(vs))
		if l.checkScan(m, 0, 63, k2, v2) == nil {
			t.Errorf("%s passed", name)
		}
	}
	corrupt("a swapped pair of entries", func(ks, vs []uint64) ([]uint64, []uint64) {
		ks[1], ks[2] = ks[2], ks[1]
		vs[1], vs[2] = vs[2], vs[1]
		return ks, vs
	})
	corrupt("a key beyond the bounds", func(ks, vs []uint64) ([]uint64, []uint64) {
		return append(ks, 64), append(vs, 0)
	})
	corrupt("unequal pair members", func(ks, vs []uint64) ([]uint64, []uint64) {
		vs[0]++ // key 0 is a pair member; its partner 32 is in range
		return ks, vs
	})
	corrupt("a missing static key", func(ks, vs []uint64) ([]uint64, []uint64) {
		return ks[2:], vs[2:] // drops keys 0 and 1
	})
	corrupt("a never-inserted key", func(ks, vs []uint64) ([]uint64, []uint64) {
		i := slices.Index(ks, 8)
		return slices.Insert(ks, i, 7), slices.Insert(vs, i, 0)
	})
	corrupt("a churn key the owner's model does not hold", func(ks, vs []uint64) ([]uint64, []uint64) {
		k := uint64(2)
		if !l.initPresent[2] {
			k = 3
		}
		i := slices.Index(ks, k)
		return slices.Delete(ks, i, i+1), slices.Delete(vs, i, i+1)
	})
	if l.checkPair(m, 0, 5, true, 6, true) == nil {
		t.Error("a pair read 5 and 6 passed")
	}
}

func TestScanFinalCheckFires(t *testing.T) {
	l, _ := genScan(scanShort, 3)
	models := []*churnModel{newChurnModel(l, 0), newChurnModel(l, 1)}
	models[0].pairInc[0] = 2
	models[1].pairInc[0] = 1
	var ks, vs []uint64
	for k := 0; k < l.keys; k++ {
		if l.initPresent[k] {
			v := l.initVal[k]
			if k == 0 || k == 32 {
				v += 3
			}
			ks, vs = append(ks, uint64(k)), append(vs, v)
		}
	}
	if err := l.checkScanFinal(models, ks, vs, len(ks)); err != nil {
		t.Fatalf("the true final state failed: %v", err)
	}
	models[1].pairInc[0] = 2 // a wrong tally
	if l.checkScanFinal(models, ks, vs, len(ks)) == nil {
		t.Error("a wrong pair tally passed")
	}
	models[1].pairInc[0] = 1
	if l.checkScanFinal(models, ks, vs, len(ks)+1) == nil {
		t.Error("a wrong Len passed")
	}
}

func TestSimChecksFire(t *testing.T) {
	for _, n := range lockstepNs {
		want := eq8(lockC, lockW, lockAlpha, n)
		trials := 2000
		if err := checkLockstep(n, int(want*float64(trials)), trials); err != nil {
			t.Errorf("N=%d: the Eq. 8 rate itself failed: %v", n, err)
		}
		if checkLockstep(n, int((want+0.1)*float64(trials)), trials) == nil {
			t.Errorf("N=%d: a rate shifted by 0.1 passed", n)
		}
	}
	// Eq. 8 from the paper's figures: C=2, alpha=2, W=8 gives 320/N.
	if got := eq8(2, 8, 2, 512); got < 0.4647 || got > 0.4648 {
		t.Errorf("eq8(2, 8, 2, 512) = %v, want 1-exp(-0.625)", got)
	}
	if err := checkWMonotone(3, 50, 80); err != nil {
		t.Errorf("clearly separated rates failed: %v", err)
	}
	if checkWMonotone(10, 14, 80) == nil {
		t.Error("overlapping intervals passed")
	}
	if checkWMonotone(50, 3, 80) == nil {
		t.Error("W=80 below W=5 passed")
	}
	if checkTagged(1) == nil {
		t.Error("an aliased trial on the tagged table passed")
	}
	a := &roundTally{aliased: []int{1, 2, 3, 4, 0}, conflicted: []int{5, 6, 7, 8}}
	b := &roundTally{aliased: []int{1, 2, 3, 4, 0}, conflicted: []int{5, 6, 7, 9}}
	if checkRepeat(a, a) != nil || checkRepeat(a, b) == nil {
		t.Error("checkRepeat does not tell equal rounds from different ones")
	}
}
