package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// spanName names the layer boundary a span was recorded at.
type spanName uint8

const (
	spTxn      spanName = iota // one Thread.Atomic call, retries included
	spAttempt                  // one execution of the transaction body
	spGet                      // tmds GetTx
	spPut                      // tmds PutTx
	spDelete                   // tmds DeleteTx
	spScan                     // tmds RangeScanTx
	spRound                    // one pass over the simulator grid
	spAlias                    // one alias.Run call
	spLockstep                 // one lockstep.Run call
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "attempt", "tmds.get", "tmds.put", "tmds.delete", "tmds.scan",
	"sims.round", "alias.Run", "lockstep.Run",
}

// span is one closed span. IDs are unique within a run; parent 0 is none.
type span struct {
	start, end int64 // nanoseconds since the run's trace epoch
	id, parent uint64
	txn        uint64 // transaction (or grid round) the span belongs to
	name       spanName
}

type openSpan struct {
	id    uint64
	start int64
	child int64 // time covered by closed child spans
	name  spanName
}

// layerTime accumulates the spans of one name.
type layerTime struct {
	count, totalNs, selfNs int64
}

// tracer records spans for one goroutine. Spans are kept in memory up to a
// cap and written out when the run ends; the per-name totals and self times
// (a span's duration minus the part its children cover) are kept for every
// span, kept or not.
type tracer struct {
	epoch time.Time
	idHi  uint64 // distinguishes the tracers of different clients
	seq   uint64
	txn   uint64
	stack []openSpan
	kept  []span
	keep  int
	agg   [numSpanNames]layerTime
}

// maxKeptSpans bounds the spans written out per run (about 48 bytes each in
// memory, 120 in the file).
const maxKeptSpans = 1 << 17

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{
		epoch: epoch,
		idHi:  uint64(client+1) << 48,
		stack: make([]openSpan, 0, 8),
		kept:  make([]span, 0, maxKeptSpans),
		keep:  maxKeptSpans,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its start time.
func (t *tracer) begin(n spanName) int64 {
	at := t.now()
	t.seq++
	t.stack = append(t.stack, openSpan{id: t.idHi | t.seq, start: at, name: n})
	return at
}

// end closes the innermost span and returns its end time.
func (t *tracer) end() int64 {
	at := t.now()
	t.endAt(at)
	return at
}

func (t *tracer) endAt(at int64) {
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := at - o.start
	a := &t.agg[o.name]
	a.count++
	a.totalNs += d
	a.selfNs += d - o.child
	var parent uint64
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.child += d
		parent = p.id
	}
	if len(t.kept) < t.keep {
		t.kept = append(t.kept, span{start: o.start, end: at, id: o.id, parent: parent, txn: t.txn, name: o.name})
	}
}

// unwind closes every span above depth at one instant: the spans a
// conflict abort left open when it unwound the transaction body.
func (t *tracer) unwind(depth int) int64 {
	at := t.now()
	for len(t.stack) > depth {
		t.endAt(at)
	}
	return at
}

// sum adds the per-name totals of ts.
func sumLayers(ts ...*tracer) [numSpanNames]layerTime {
	var s [numSpanNames]layerTime
	for _, t := range ts {
		for i, a := range t.agg {
			s[i].count += a.count
			s[i].totalNs += a.totalNs
			s[i].selfNs += a.selfNs
		}
	}
	return s
}

// meanNs returns the mean duration of the spans of name n.
func (l layerTime) meanNs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.totalNs) / float64(l.count)
}

// printLayers writes each span name's count, total and self time.
func printLayers(w io.Writer, layers [numSpanNames]layerTime, ops int64) {
	fmt.Fprintf(w, "layer self times over %d traced operations:\n", ops)
	fmt.Fprintf(w, "  %-14s %12s %14s %14s %14s\n", "span", "count", "total_ms", "self_ms", "self_ns/op")
	for i, l := range layers {
		if l.count == 0 {
			continue
		}
		perOp := 0.0
		if ops > 0 {
			perOp = float64(l.selfNs) / float64(ops)
		}
		fmt.Fprintf(w, "  %-14s %12d %14.3f %14.3f %14.1f\n", spanNames[i], l.count,
			float64(l.totalNs)/1e6, float64(l.selfNs)/1e6, perOp)
	}
}

// writeSpans writes the kept spans of every tracer as JSON lines.
func writeSpans(path string, ts ...*tracer) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, t := range ts {
		for _, s := range t.kept {
			fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"txn":%d}`+"\n",
				spanNames[s.name], s.start, s.end, s.id, s.parent, s.txn)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// stmTimes splits the time of traced transactions that the body spans do
// not cover: from the Atomic call to the first body entry (begin), from
// the last body exit to the Atomic return (commit), and between a failed
// attempt's exit and the next attempt's entry (retry), plus the body time
// of attempts that did not commit (wasted).
type stmTimes struct {
	beginNs, commitNs, retryNs, wastedNs int64
	txns                                 int64
	footprintSum                         int64
	footprintMax                         int
}

// txnClock follows one traced transaction through its attempts.
type txnClock struct {
	attempts  int
	entry     int64 // start of the current attempt's body
	firstIn   int64
	lastOut   int64
	footprint int // Tx.FootprintBlocks at the last normal body return
}

// enter marks a body entry at time at.
func (c *txnClock) enter(at int64, st *stmTimes) {
	if c.attempts == 0 {
		c.firstIn = at
	} else {
		st.retryNs += at - c.lastOut
		st.wastedNs += c.lastOut - c.entry
	}
	c.attempts++
	c.entry = at
}

// finish accounts a transaction that ran from start to end.
func (c *txnClock) finish(start, end int64, st *stmTimes) {
	st.beginNs += c.firstIn - start
	st.commitNs += end - c.lastOut
	st.txns++
	st.footprintSum += int64(c.footprint)
	st.footprintMax = max(st.footprintMax, c.footprint)
	*c = txnClock{}
}

func (st *stmTimes) add(o stmTimes) {
	st.beginNs += o.beginNs
	st.commitNs += o.commitNs
	st.retryNs += o.retryNs
	st.wastedNs += o.wastedNs
	st.txns += o.txns
	st.footprintSum += o.footprintSum
	st.footprintMax = max(st.footprintMax, o.footprintMax)
}
