package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/report"
	"tmbp/internal/stm"
	"tmbp/tmds"
)

// runBench executes the headline STM micro-workloads against every table
// organization and reports ns/op, allocs/op, and abort rate — the three
// numbers this project's performance work is steered by. With -json the
// result is machine-readable so successive PRs can be diffed against the
// checked-in BENCH_baseline.json.
//
// The harness is deliberately self-contained rather than delegating to
// `go test -bench`: measuring with a plain loop plus runtime.MemStats keeps
// the op count (and therefore runtime) an explicit flag, and makes the
// output format stable for tooling.
func runBench(fs *flag.FlagSet, args []string) error {
	jsonOut := fs.Bool("json", false, "emit JSON instead of an aligned table")
	entries := fs.Uint64("entries", 4096, "ownership table entries (power of two)")
	hashName := fs.String("hash", "mask", "address hash: mask | fibonacci | mix")
	serialOps := fs.Int("serial-ops", 200000, "transactions per serial measurement")
	contOps := fs.Int("contended-ops", 20000, "transactions per goroutine per contended measurement")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var results []benchResult
	for _, kind := range otable.Kinds() {
		r, err := benchSerial("serial", kind, "backoff", *entries, *hashName, *serialOps, *seed)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	// Per-policy serial rows: a serial run never aborts, so these measure
	// the CM plumbing's cost on the conflict-free hot path — the bench-diff
	// gate then catches any policy whose mere presence slows commits.
	for _, policy := range stm.CMKinds() {
		r, err := benchSerial("serial-cm-"+policy, "tagged", policy, *entries, *hashName, *serialOps, *seed)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	// Per-policy abort-path rows: serial runs never abort, so the rows
	// above cannot see what a policy does when it matters. These invoke
	// Aborted directly with synthetic denials and waiting disabled,
	// pricing the per-abort decision itself — timestamp's lock-free board
	// lookup, adaptive's and switching's abort-rate updates — in ns/op and
	// allocs/op.
	for _, policy := range stm.CMKinds() {
		r, err := benchCMAbort(policy, *serialOps, *seed)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	// Read-only rows, acquiring vs invisible: the same 8-read transaction
	// measured with reads taking table ownership (the default protocol) and
	// with the invisible-reader fast path validating versions instead. The
	// pair is the headline number for the invisible-reader work — the diff
	// gate holds both to zero allocs, and the invisible row is expected to
	// beat the acquiring one on every table kind.
	for _, kind := range otable.Kinds() {
		for _, mode := range []struct {
			workload  string
			invisible bool
		}{{"serial-ro-acquire", false}, {"serial-ro-invisible", true}} {
			r, err := benchSerialRO(mode.workload, kind, *entries, *hashName, *serialOps, *seed, mode.invisible)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	// Ordered-map rows: the skiplist's point-operation mix and a
	// whole-structure range scan. The scan row is the one serial workload
	// whose access set spills far past the inline region every transaction
	// (one read per level-0 node), so its allocs/op pins the spill table's
	// steady-state reuse and its ns/op prices the multi-hundred-block
	// footprint.
	for _, kind := range otable.Kinds() {
		r, err := benchSkiplist("serial-skiplist", kind, *hashName, *entries, *serialOps/4, *seed, false)
		if err != nil {
			return err
		}
		results = append(results, r)
		r, err = benchSkiplist("serial-skiplist-scan", kind, *hashName, *entries, *serialOps/100, *seed, true)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	for _, kind := range otable.Kinds() {
		r, err := benchContended(kind, *hashName, *contOps, *seed)
		if err != nil {
			return err
		}
		results = append(results, r)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchReport{
			Schema:     1,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Results:    results,
		})
	}
	t := report.New("STM benchmark suite",
		"workload", "table", "ns/op", "allocs/op", "B/op", "abort rate")
	for _, r := range results {
		t.Add(r.Workload+"/"+r.Kind,
			r.Kind,
			report.F1(r.NsPerOp),
			fmt.Sprintf("%.2f", r.AllocsPerOp),
			fmt.Sprintf("%.1f", r.BytesPerOp),
			report.Pct(r.AbortRate))
	}
	t.Note("serial: one thread, %d 8-access read-modify-write txns; contended: GOMAXPROCS threads x %d single-word read-modify-write txns on a 256-entry table", *serialOps, *contOps)
	t.Note("serial-cm-*: the serial workload on the tagged table under each contention-management policy (no aborts occur; this prices the policy plumbing on the hot path)")
	t.Note("cmabort-*: the policy's Aborted callback invoked directly with synthetic writer/reader denials, waits disabled — the per-abort decision cost (timestamp looks the opponent up on the lock-free board, never a mutex)")
	t.Note("serial-ro-*: one thread, %d read-only txns of 8 reads over 8 distinct chunks; -acquire takes read ownership per chunk, -invisible validates version stamps and never touches the table", *serialOps)
	t.Note("serial-skiplist: one thread driving the transactional skiplist's Get/Put/Delete point mix; -scan instead range-scans all 128 entries per txn — a ~130-block footprint that exercises the access set's spill table")
	t.Note("allocs/op and B/op are process-wide malloc deltas per transaction; steady state must be 0")
	return t.Render(os.Stdout)
}

// benchReport is the JSON envelope of one bench run.
type benchReport struct {
	Schema     int           `json:"schema"`
	GoVersion  string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

// benchResult is one workload x table measurement.
type benchResult struct {
	Workload    string  `json:"workload"`
	Kind        string  `json:"kind"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AbortRate   float64 `json:"abort_rate"`
	Commits     uint64  `json:"commits"`
	Aborts      uint64  `json:"aborts"`
}

// newBenchRuntime assembles a runtime for the bench workloads.
func newBenchRuntime(kind, hashName, cm string, entries uint64, words int, seed uint64) (*stm.Runtime, error) {
	h, err := hash.New(hashName, entries)
	if err != nil {
		return nil, err
	}
	tab, err := otable.New(kind, h)
	if err != nil {
		return nil, err
	}
	return stm.New(stm.Config{Table: tab, Memory: stm.NewMemory(words), Seed: seed, CM: cm})
}

// benchSerial measures single-thread transaction latency: the 8-word
// read-modify-write transaction of the package benchmarks. Allocation is
// measured as the process-wide malloc delta across the timed region — with
// a single goroutine this is exact, and in steady state it must be zero.
func benchSerial(workload, kind, cm string, entries uint64, hashName string, ops int, seed uint64) (benchResult, error) {
	const words = 1 << 12
	rt, err := newBenchRuntime(kind, hashName, cm, entries, words, seed)
	if err != nil {
		return benchResult{}, err
	}
	mem := rt.Memory()
	th := rt.NewThread()
	txn := func(i int) error {
		return th.Atomic(func(tx *stm.Tx) error {
			for k := 0; k < 8; k++ {
				a := mem.WordAddr((i*8 + k) % words)
				tx.Write(a, tx.Read(a)+1)
			}
			return nil
		})
	}
	// Warm up: establish access-set capacity and table record pools.
	for i := 0; i < 1000; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	warm := rt.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st := rt.Stats()
	commits := st.Commits - warm.Commits
	aborts := st.Aborts - warm.Aborts
	res := benchResult{
		Workload:    workload,
		Kind:        kind,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		Commits:     commits,
		Aborts:      aborts,
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res, nil
}

// benchSerialRO measures single-thread read-only transaction latency: 8
// reads spread across 8 distinct chunks, no writes, so the whole transaction
// stays on whichever read protocol the runtime is configured with and every
// read pays the per-chunk protocol cost (reads within an already-read chunk
// would mostly hit the access set and measure nothing). The acquiring
// variant pays two table CASes per chunk (acquire + release); the invisible
// variant pays two version-word loads. Same warm-up and process-wide
// malloc-delta accounting as benchSerial.
func benchSerialRO(workload, kind string, entries uint64, hashName string, ops int, seed uint64, invisible bool) (benchResult, error) {
	const words = 1 << 12
	h, err := hash.New(hashName, entries)
	if err != nil {
		return benchResult{}, err
	}
	tab, err := otable.New(kind, h)
	if err != nil {
		return benchResult{}, err
	}
	rt, err := stm.New(stm.Config{
		Table:            tab,
		Memory:           stm.NewMemory(words),
		Seed:             seed,
		InvisibleReaders: invisible,
	})
	if err != nil {
		return benchResult{}, err
	}
	mem := rt.Memory()
	th := rt.NewThread()
	var sink uint64
	txn := func(i int) error {
		return th.Atomic(func(tx *stm.Tx) error {
			var s uint64
			for k := 0; k < 8; k++ {
				// k*(words/8) lands each read in its own chunk; i walks the
				// whole space so the warm-up touches every table slot.
				s += tx.Read(mem.WordAddr((i + k*(words/8)) % words))
			}
			sink = s
			return nil
		})
	}
	for i := 0; i < 1000; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	warm := rt.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	_ = sink
	st := rt.Stats()
	commits := st.Commits - warm.Commits
	aborts := st.Aborts - warm.Aborts
	res := benchResult{
		Workload:    workload,
		Kind:        kind,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		Commits:     commits,
		Aborts:      aborts,
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res, nil
}

// benchScanSink is the skiplist scan row's observation callback: a
// package-level func so the measured loop carries no closure.
func benchScanSink(_, _ uint64) error { return nil }

// benchSkiplist measures the transactional skiplist through the public
// facade — the same code path tmds users take. A half-full 512-slot
// skiplist (even keys of [0, 256)) serves either a point-operation mix
// (Get-heavy with occasional Put/Delete, scan=false) or a whole-structure
// range scan per transaction (scan=true). Warm-up grows the thread's access
// set to the scan footprint, so the measured region must allocate nothing.
func benchSkiplist(workload, kind, hashName string, entries uint64, ops int, seed uint64, scan bool) (benchResult, error) {
	const capacity = 512
	rt, err := newBenchRuntime(kind, hashName, "backoff", entries, tmds.SkiplistWords(capacity), seed)
	if err != nil {
		return benchResult{}, err
	}
	mem := rt.Memory()
	s, err := tmds.NewSkiplist(mem, 0, capacity, seed)
	if err != nil {
		return benchResult{}, err
	}
	th := rt.NewThread()
	for k := uint64(0); k < 256; k += 2 {
		if _, err := s.Put(th, k, k); err != nil {
			return benchResult{}, err
		}
	}
	scanBody := func(tx *stm.Tx) error { return s.RangeScanTx(tx, 0, 255, benchScanSink) }
	txn := func(i int) error {
		if scan {
			return th.Atomic(scanBody)
		}
		k := uint64(i*31) % 256
		switch i % 10 {
		case 0, 1:
			_, err := s.Put(th, k, uint64(i))
			return err
		case 2:
			_, err := s.Delete(th, k)
			return err
		default:
			_, _, err := s.Get(th, k)
			return err
		}
	}
	for i := 0; i < 200; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	warm := rt.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := txn(i); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st := rt.Stats()
	commits := st.Commits - warm.Commits
	aborts := st.Aborts - warm.Aborts
	res := benchResult{
		Workload:    workload,
		Kind:        kind,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		Commits:     commits,
		Aborts:      aborts,
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res, nil
}

// benchCMAbort prices one contention-management policy's per-abort decision
// in isolation. No transactions run: Aborted is invoked directly with
// synthetic denials (alternating a known writer opponent and an anonymous
// reader count, the two shapes a real conflict takes), against a runtime
// with several registered threads so board-ranking policies have something
// to rank over. BackoffBase = -1 disables all waiting, so ns/op is the
// decision bookkeeping alone and allocs/op proves the abort path never
// touches the heap — including timestamp's opponent lookup, which reads
// the epoch-published board instead of taking the runtime mutex.
func benchCMAbort(policy string, ops int, seed uint64) (benchResult, error) {
	const threads = 8
	h, err := hash.New("mask", 256)
	if err != nil {
		return benchResult{}, err
	}
	tab, err := otable.New("tagged", h)
	if err != nil {
		return benchResult{}, err
	}
	rt, err := stm.New(stm.Config{
		Table:       tab,
		Memory:      stm.NewMemory(64),
		Seed:        seed,
		CM:          policy,
		BackoffBase: -1, // decisions only: no yields, no opponent waits
	})
	if err != nil {
		return benchResult{}, err
	}
	ths := make([]*stm.Thread, threads)
	for i := range ths {
		ths[i] = rt.NewThread()
	}
	cm := ths[0].CM()
	oppWriter := otable.WriterConflict(ths[1].ID())
	oppReaders := otable.ReadersConflict(2)
	cycle := func(i int) {
		opp := oppWriter
		if i&1 == 1 {
			opp = oppReaders
		}
		cm.Aborted(i&7+1, 8, opp)
		if i&7 == 7 {
			cm.Committed(8)
		}
	}
	for i := 0; i < 1000; i++ { // warm up any lazily built state
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		cycle(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	cm.Committed(8)
	return benchResult{
		Workload:    "cmabort-" + policy,
		Kind:        "cm",
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	}, nil
}

// benchContended measures throughput and abort rate under real goroutine
// contention on a small, heavily aliasing table (the BenchmarkSTMContended
// shape). ns/op is wall time over total transactions; the malloc delta is
// process-wide across all workers. Harness setup stays outside the measured
// region: threads are created up front and the workers are parked on a
// start barrier before the clock and MemStats are read, so the measured
// allocations are the STM's alone and must be zero in steady state.
func benchContended(kind, hashName string, opsPerG int, seed uint64) (benchResult, error) {
	const (
		entries = 256
		words   = 1 << 12
	)
	rt, err := newBenchRuntime(kind, hashName, "backoff", entries, words, seed)
	if err != nil {
		return benchResult{}, err
	}
	mem := rt.Memory()
	goroutines := runtime.GOMAXPROCS(0)
	ths := make([]*stm.Thread, goroutines)
	for g := range ths {
		ths[g] = rt.NewThread()
	}
	// run executes ops transactions per worker, measuring only the span
	// between releasing the parked workers and their last completion.
	run := func(ops int) (elapsed time.Duration, mallocs, bytes uint64, err error) {
		start := make(chan struct{})
		done := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func(gid int) {
				th := ths[gid]
				<-start
				for i := 0; i < ops; i++ {
					if err := th.Atomic(func(tx *stm.Tx) error {
						a := mem.WordAddr(((gid + i) * 8 * 31) % words)
						tx.Write(a, tx.Read(a)+1)
						return nil
					}); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(g)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		close(start)
		for g := 0; g < goroutines; g++ {
			if werr := <-done; werr != nil && err == nil {
				err = werr
			}
		}
		elapsed = time.Since(t0)
		runtime.ReadMemStats(&after)
		return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
	}
	if _, _, _, err := run(500); err != nil { // warm-up
		return benchResult{}, err
	}
	warm := rt.Stats()
	elapsed, mallocs, bytes, err := run(opsPerG)
	if err != nil {
		return benchResult{}, err
	}
	st := rt.Stats()
	commits := st.Commits - warm.Commits
	aborts := st.Aborts - warm.Aborts
	total := goroutines * opsPerG
	res := benchResult{
		Workload:    "contended",
		Kind:        kind,
		Ops:         total,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(total),
		AllocsPerOp: float64(mallocs) / float64(total),
		BytesPerOp:  float64(bytes) / float64(total),
		Commits:     commits,
		Aborts:      aborts,
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res, nil
}
