package main

import (
	"fmt"

	"tmbp"
)

// End-to-end metrics, reported by every workload with --trace 0.
//
// An operation is one Thread.Atomic call on kv-point and scan-mix, and one
// simulator call (alias.Run or lockstep.Run on a fixed batch of trials) on
// paper-sims.
func setEndToEnd(res *result, setupS, opsPerS, p50us, p99us, heapMiB float64) {
	res.set("setup_s", setupS, "s")
	res.set("ops_per_s", opsPerS, "1/s")
	res.set("op_p50_us", p50us, "us")
	res.set("op_p99_us", p99us, "us")
	res.set("heap_mb", heapMiB, "MiB")
}

// Grid points of paper-sims, named in the per-layer rate metrics.
var (
	aliasPoints = []aliasPoint{
		{w: 5, n: 1024}, {w: 5, n: 262144},
		{w: 80, n: 1024}, {w: 80, n: 262144},
		{w: 80, n: 1024, tagged: true},
	}
	lockstepNs = []uint64{512, 1024, 2048, 4096}
)

type aliasPoint struct {
	w      int
	n      uint64
	tagged bool
}

func (p aliasPoint) String() string {
	if p.tagged {
		return fmt.Sprintf("tagged.W%d.N%d", p.w, p.n)
	}
	return fmt.Sprintf("W%d.N%d", p.w, p.n)
}

// perLayerMetrics lists every metric a traced run reports, with its unit.
// A layer the workload never enters reads 0.
func perLayerMetrics() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"tmds.get_ns", "ns"},
		{"tmds.put_ns", "ns"},
		{"tmds.delete_ns", "ns"},
		{"tmds.scan_ns_per_key", "ns"},
		{"stm.begin_ns", "ns"},
		{"stm.commit_ns", "ns"},
		{"stm.retry_ns_per_txn", "ns"},
		{"stm.wasted_body_ns_per_txn", "ns"},
		{"stm.commits", "count"},
		{"stm.attempts_per_commit", "ratio"},
		{"stm.aborts", "count"},
		{"stm.ro_commits", "count"},
		{"stm.ro_validation_aborts", "count"},
		{"stm.ro_extensions", "count"},
		{"stm.ro_promotions", "count"},
		{"stm.fallback_commits", "count"},
		{"stm.max_consecutive_aborts", "count"},
		{"stm.allocs_per_txn", "count"},
		{"txn.footprint_blocks_mean", "blocks"},
		{"txn.footprint_blocks_max", "blocks"},
		{"otable.acquires_per_commit", "ratio"},
		{"otable.chain_follows_per_acquire", "ratio"},
		{"otable.conflicts", "count"},
		{"otable.release_walks", "count"},
		{"alias.trial_us", "us"},
		{"alias.alloc_bytes_per_trial", "B"},
		{"alias.warehouse_share", "ratio"},
		{"trace.new_warehouse_us", "us"},
		{"trace.next_ns", "ns"},
		{"xrand.new_zipf_us", "us"},
		{"lockstep.trial_us", "us"},
		{"lockstep.allocs_per_trial", "count"},
		{"otable.footprint_op_ns", "ns"},
		{"otable.footprint_allocs_per_op", "count"},
		{"bench.attempt_self_ns_per_op", "ns"},
		{"tracing.untraced_op_mean_ns", "ns"},
		{"tracing.traced_op_mean_ns", "ns"},
		{"tracing.overhead_ns_per_op", "ns"},
	}
	for _, p := range aliasPoints {
		m = append(m, struct{ name, unit string }{"alias.rate." + p.String(), "ratio"})
	}
	for _, n := range lockstepNs {
		m = append(m,
			struct{ name, unit string }{fmt.Sprintf("lockstep.rate.N%d", n), "ratio"},
			struct{ name, unit string }{fmt.Sprintf("eq8.rate.N%d", n), "ratio"})
	}
	return m
}

// newLayerResult returns a result holding every per-layer metric at 0.
func newLayerResult() *result {
	res := &result{}
	for _, m := range perLayerMetrics() {
		res.set(m.name, 0, m.unit)
	}
	return res
}

// setLayer overwrites a per-layer metric, keeping its catalogued unit.
func (r *result) setLayer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not catalogued")
	}
	m.Value = v
	r.Metrics[name] = m
}

// stmSnapshot is the runtime's and the table's counters at one instant.
type stmSnapshot struct {
	s tmbp.STMStats
	t tmbp.TableStats
}

func snapshot(rt *tmbp.STM, tab tmbp.Table) stmSnapshot {
	return stmSnapshot{s: rt.Stats(), t: tab.Stats()}
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillSTMCounts sets the counter metrics from the deltas between two
// snapshots taken around the untraced phase, and the allocation count per
// transaction of that phase.
func fillSTMCounts(res *result, before, after stmSnapshot, allocsPerTxn float64) {
	s0, s1, t0, t1 := before.s, after.s, before.t, after.t
	commits := float64(s1.Commits - s0.Commits)
	aborts := float64(s1.Aborts - s0.Aborts)
	acquires := float64(t1.ReadAcquires - t0.ReadAcquires + t1.WriteAcquires - t0.WriteAcquires)
	res.setLayer("stm.commits", commits)
	res.setLayer("stm.attempts_per_commit", ratio(commits+aborts, commits))
	res.setLayer("stm.aborts", aborts)
	res.setLayer("stm.ro_commits", float64(s1.ROCommits-s0.ROCommits))
	res.setLayer("stm.ro_validation_aborts", float64(s1.ROValidationAborts-s0.ROValidationAborts))
	res.setLayer("stm.ro_extensions", float64(s1.ROExtensions-s0.ROExtensions))
	res.setLayer("stm.ro_promotions", float64(s1.ROPromotions-s0.ROPromotions))
	res.setLayer("stm.fallback_commits", float64(s1.FallbackCommits-s0.FallbackCommits))
	// A running maximum, not a counter: the largest streak seen so far.
	res.setLayer("stm.max_consecutive_aborts", float64(s1.MaxConsecutiveAborts))
	res.setLayer("stm.allocs_per_txn", allocsPerTxn)
	res.setLayer("otable.acquires_per_commit", ratio(acquires, commits))
	conflicts := float64(t1.Conflicts - t0.Conflicts)
	res.setLayer("otable.chain_follows_per_acquire", ratio(float64(t1.ChainFollows-t0.ChainFollows), acquires+conflicts))
	res.setLayer("otable.conflicts", conflicts)
	res.setLayer("otable.release_walks", float64(t1.ReleaseWalks-t0.ReleaseWalks))
}

// fillSTMTimes sets the time metrics of the traced phase.
func fillSTMTimes(res *result, layers [numSpanNames]layerTime, st stmTimes, scanKeys int64) {
	res.setLayer("tmds.get_ns", layers[spGet].meanNs())
	res.setLayer("tmds.put_ns", layers[spPut].meanNs())
	res.setLayer("tmds.delete_ns", layers[spDelete].meanNs())
	res.setLayer("tmds.scan_ns_per_key", ratio(float64(layers[spScan].totalNs), float64(scanKeys)))
	n := float64(st.txns)
	res.setLayer("stm.begin_ns", ratio(float64(st.beginNs), n))
	res.setLayer("stm.commit_ns", ratio(float64(st.commitNs), n))
	res.setLayer("stm.retry_ns_per_txn", ratio(float64(st.retryNs), n))
	res.setLayer("stm.wasted_body_ns_per_txn", ratio(float64(st.wastedNs), n))
	res.setLayer("txn.footprint_blocks_mean", ratio(float64(st.footprintSum), n))
	res.setLayer("txn.footprint_blocks_max", float64(st.footprintMax))
	res.setLayer("bench.attempt_self_ns_per_op", ratio(float64(layers[spAttempt].selfNs), n))
}

// fillOverhead sets the tracing-overhead metrics from the mean operation
// time of the untraced and the traced phase.
func fillOverhead(res *result, untracedNs, tracedNs float64) {
	res.setLayer("tracing.untraced_op_mean_ns", untracedNs)
	res.setLayer("tracing.traced_op_mean_ns", tracedNs)
	res.setLayer("tracing.overhead_ns_per_op", tracedNs-untracedNs)
}

// allocsPer returns allocs, less the allocations the recorders made, per
// operation.
func allocsPer(allocs uint64, ops int64, recs ...*recorder) float64 {
	n := float64(allocs)
	for _, r := range recs {
		n -= float64(r.allocs)
	}
	return ratio(max(n, 0), float64(ops))
}
