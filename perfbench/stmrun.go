package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"tmbp"
)

// stmClient is one closed-loop client of an STM workload: it runs rounds of
// its pre-drawn transactions, each waiting for the previous to return.
type stmClient interface {
	// round runs one round, recording each Atomic call's latency in rec.
	round(rec *recorder)
	// roundTraced runs one round with spans around every layer call.
	roundTraced(rec *recorder)
	state() *clientState
}

// clientState is what every client keeps beside its workload's own state.
type clientState struct {
	fails    failures
	tr       *tracer // nil until the traced phase
	clock    txnClock
	st       stmTimes
	scanKeys int64 // entries delivered to traced scans
}

// runPhase runs every client on its own goroutine, round after round, until
// the phase has lasted d; each client stops at the end of a round. It
// returns the heap allocations made while the clients ran.
func runPhase(clients []stmClient, recs []*recorder, d time.Duration, traced bool) (allocs uint64) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	var deadline time.Time
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				if traced {
					c.roundTraced(recs[i])
				} else {
					c.round(recs[i])
				}
				if time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	m0, _ := mallocs()
	deadline = time.Now().Add(d)
	close(start) // publishes deadline to the clients
	wg.Wait()
	m1, _ := mallocs()
	return m1 - m0
}

// prefillBatch is the number of keys inserted per set-up transaction.
const prefillBatch = 64

// prefill calls put for keys [0, n), prefillBatch keys per transaction, on
// a thread of its own: the clients' access sets then only ever grow to the
// workload's footprints.
func prefill(rt *tmbp.STM, n int, put func(tx *tmbp.Tx, k int) error) error {
	th := rt.NewThread()
	for lo := 0; lo < n; lo += prefillBatch {
		hi := min(lo+prefillBatch, n)
		err := th.Atomic(func(tx *tmbp.Tx) error {
			for k := lo; k < hi; k++ {
				if err := put(tx, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// stmRun is one measured run of an STM workload on state built already.
type stmRun struct {
	cfg                 config
	setupS              float64
	clients             []stmClient
	rt                  *tmbp.STM
	tab                 tmbp.Table
	windowOps, roundOps int
	// final checks the program's state after the last round.
	final func(*failures)
}

func (r *stmRun) recorders() []*recorder {
	recs := make([]*recorder, len(r.clients))
	for i := range recs {
		recs[i] = newRecorder(r.windowOps, r.roundOps)
	}
	return recs
}

// fails gathers the clients' failures and runs the final checks.
func (r *stmRun) fails() *failures {
	f := &failures{}
	for _, c := range r.clients {
		f.merge(&c.state().fails)
	}
	r.final(f)
	return f
}

// run measures for cfg.seconds and returns the end-to-end metrics, or in
// trace mode the per-layer ones. keep is the program state that must stay
// reachable while the live heap is measured.
func (r *stmRun) run(keep any) *result {
	d := time.Duration(r.cfg.seconds * float64(time.Second))
	if !r.cfg.trace {
		recs := r.recorders()
		runPhase(r.clients, recs, d, false)
		p50, p99 := latencyQuantiles(recs...)
		tps := throughput(recs...)
		res := &result{}
		r.fails().fill(res)
		// Drop the inputs, models and samples: the live heap is the
		// program's state.
		r.clients, r.final, recs = nil, nil, nil
		heap := liveHeapMiB()
		runtime.KeepAlive(keep)
		setEndToEnd(res, r.setupS, tps, p50, p99, heap)
		return res
	}

	res := newLayerResult()
	// One round per client first, so the counts below are of the steady
	// state: the table's record slab and the access sets have grown to the
	// workload's needs, and they keep what they grew.
	runPhase(r.clients, r.recorders(), 0, false)
	// Untraced half: counters, allocations and the untraced latency.
	recsA := r.recorders()
	before := snapshot(r.rt, r.tab)
	allocs := runPhase(r.clients, recsA, d/2, false)
	after := snapshot(r.rt, r.tab)
	var ops int64
	for _, rec := range recsA {
		ops += rec.ops
	}
	fillSTMCounts(res, before, after, allocsPer(allocs, ops, recsA...))

	// Traced half: layer times.
	epoch := time.Now()
	tracers := make([]*tracer, len(r.clients))
	for i, c := range r.clients {
		tracers[i] = newTracer(epoch, i)
		c.state().tr = tracers[i]
	}
	recsB := r.recorders()
	runPhase(r.clients, recsB, d/2, true)
	var st stmTimes
	var scanKeys int64
	for _, c := range r.clients {
		st.add(c.state().st)
		scanKeys += c.state().scanKeys
	}
	layers := sumLayers(tracers...)
	fillSTMTimes(res, layers, st, scanKeys)
	fillOverhead(res, meanNs(recsA...), meanNs(recsB...))
	printLayers(os.Stdout, layers, st.txns)
	if err := writeSpans(r.cfg.spans, tracers...); err != nil {
		// The spans are a by-product; the metrics stand without them.
		os.Stderr.WriteString("perfbench: " + err.Error() + "\n")
	}
	r.fails().fill(res)
	return res
}
