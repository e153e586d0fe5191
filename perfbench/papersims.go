package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"time"

	"tmbp"
	"tmbp/internal/addr"
	"tmbp/internal/alias"
	"tmbp/internal/sim/lockstep"
	"tmbp/internal/trace"
	"tmbp/internal/xrand"
)

// paper-sims: one goroutine runs the paper's simulators over the grid of
// aliasPoints (the trace-driven study behind Figure 2, C = 2) and
// lockstepNs (the Figure 4(a) lock-step trials, C = 2, alpha = 2, W = 8).
// It never enters the STM runtime: it works trace and xrand stream
// generation and otable.Footprint on tagless tables.
//
// An operation is one simulator call. A round calls every grid point with
// the same pre-drawn seeds, so every round does the same work and must
// return the same results. Alias calls are small batches (two samples,
// about 2 ms), so a run has thousands of them to take percentiles over;
// each lock-step point is one call of all its 2000 trials (about 20 ms),
// which puts op_p99_us on the lock-step calls. With lock-step calls as
// short as the alias calls, the 99th percentile fell among calls that a
// neighbouring process had preempted, and moved by a third between runs.
type simParams struct {
	aliasBatch, aliasCalls int // samples per alias.Run call, calls per point per round
	lockBatch, lockCalls   int // trials per lockstep.Run call, calls per point per round
	warmAlias, warmLock    int // batch sizes of the set-up's warm-up pass
	// layer pass: constructor calls, Next calls and Footprint trials timed
	// on their own in the traced run
	ctorReps, nextCalls, fpTrials int
}

var (
	simFull  = simParams{aliasBatch: 2, aliasCalls: 40, lockBatch: 2000, lockCalls: 1, warmAlias: 4, warmLock: 200, ctorReps: 200, nextCalls: 1 << 20, fpTrials: 20000}
	simShort = simParams{aliasBatch: 8, aliasCalls: 5, lockBatch: 500, lockCalls: 2, warmAlias: 1, warmLock: 20, ctorReps: 4, nextCalls: 1 << 12, fpTrials: 100}
)

// Lock-step grid constants (Figure 4(a)).
const (
	lockC     = 2
	lockAlpha = 2
	lockW     = 8
	aliasC    = 2
)

// eq8 is the paper's Equation 8 in saturating form: the probability that
// C lock-step transactions, each adding alpha reads per write until W
// writes, into an N-entry tagless table suffer at least one conflict,
// 1 - exp(-C(C-1)(1+2 alpha)W^2 / 2N).
func eq8(c, w, alpha int, n uint64) float64 {
	x := float64(c*(c-1)) * float64(1+2*alpha) * float64(w*w) / (2 * float64(n))
	return 1 - math.Exp(-x)
}

// lockstepTolerance is how far a lock-step rate over trials may sit from
// Eq. 8: five binomial standard errors plus 0.01 for the model's own error
// (at 10^5 trials per point the two agree within 0.001 on this grid).
func lockstepTolerance(p float64, trials int) float64 {
	return 0.01 + 5*math.Sqrt(p*(1-p)/float64(trials))
}

func checkLockstep(n uint64, conflicted, trials int) error {
	want := eq8(lockC, lockW, lockAlpha, n)
	rate := float64(conflicted) / float64(trials)
	if tol := lockstepTolerance(want, trials); math.Abs(rate-want) > tol {
		return fmt.Errorf("paper-sims: lockstep N=%d rate %.4f over %d trials, Eq. 8 gives %.4f (tolerance %.4f)",
			n, rate, trials, want, tol)
	}
	return nil
}

// wilson returns the Wilson 95% interval of k successes in n trials.
func wilson(k, n int) (lo, hi float64) {
	const z = 1.959963984540054
	p, fn := float64(k)/float64(n), float64(n)
	den := 1 + z*z/fn
	mid := (p + z*z/(2*fn)) / den
	half := z * math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn)) / den
	return mid - half, mid + half
}

// checkWMonotone checks that at one table size the alias rate at W=80 lies
// above the rate at W=5 with disjoint Wilson intervals.
func checkWMonotone(aliased5, aliased80, samples int) error {
	_, hi5 := wilson(aliased5, samples)
	lo80, _ := wilson(aliased80, samples)
	if lo80 <= hi5 {
		return fmt.Errorf("paper-sims: N=1024 alias rate W=80 (%d/%d, interval from %.3f) does not lie above W=5 (%d/%d, interval to %.3f)",
			aliased80, samples, lo80, aliased5, samples, hi5)
	}
	return nil
}

func checkTagged(aliased int) error {
	if aliased != 0 {
		return fmt.Errorf("paper-sims: tagged table aliased in %d trials, want 0", aliased)
	}
	return nil
}

// simInputs is the pre-drawn seed of every call of a round.
type simInputs struct {
	aliasSeeds [][]uint64 // [point][call]
	lockSeeds  [][]uint64
}

func genSims(p simParams, seed uint64) *simInputs {
	rng := xrand.New(seed)
	in := &simInputs{}
	for range aliasPoints {
		s := make([]uint64, p.aliasCalls)
		for i := range s {
			s[i] = rng.Uint64()
		}
		in.aliasSeeds = append(in.aliasSeeds, s)
	}
	for range lockstepNs {
		s := make([]uint64, p.lockCalls)
		for i := range s {
			s[i] = rng.Uint64()
		}
		in.lockSeeds = append(in.lockSeeds, s)
	}
	return in
}

func aliasConfig(pt aliasPoint, samples int, seed uint64) alias.Config {
	cfg := alias.Config{C: aliasC, W: pt.w, N: pt.n, Samples: samples, Seed: seed, Warehouse: trace.DefaultWarehouse(aliasC)}
	if pt.tagged {
		cfg.Kind = "tagged"
	}
	return cfg
}

func lockConfig(n uint64, trials int, seed uint64) lockstep.Config {
	return lockstep.Config{C: lockC, Alpha: lockAlpha, W: lockW, N: n, Trials: trials, Seed: seed}
}

// roundTally is what one round found at every grid point.
type roundTally struct {
	aliased    []int // per alias point
	conflicted []int // per lockstep point
}

// simRunner runs rounds and checks them.
type simRunner struct {
	p     simParams
	in    *simInputs
	fails failures
	first *roundTally // the first round's results, which every round must repeat
	live  []float64   // live heap after each call, MiB
	// traced runs only
	tr                     *tracer
	aliasNs, lockNs        int64
	aliasBytes, lockAllocs uint64
}

// aliasCall runs one alias.Run call and checks it on its own.
func (s *simRunner) aliasCall(pi, call int) (aliased int) {
	pt := aliasPoints[pi]
	res, err := alias.Run(aliasConfig(pt, s.p.aliasBatch, s.in.aliasSeeds[pi][call]))
	switch {
	case err != nil:
		s.fails.check(fmt.Errorf("paper-sims: alias %s: %w", pt, err))
	case pt.tagged:
		s.fails.check(checkTagged(res.Aliased))
	default:
		s.fails.check(nil)
	}
	return res.Aliased
}

// lockCall runs one lockstep.Run call and checks that it released every
// table entry.
func (s *simRunner) lockCall(li, call int) (conflicted int) {
	res, err := lockstep.Run(lockConfig(lockstepNs[li], s.p.lockBatch, s.in.lockSeeds[li][call]))
	if err != nil {
		s.fails.check(fmt.Errorf("paper-sims: lockstep N=%d: %w", lockstepNs[li], err))
		return 0
	}
	s.fails.check(checkZero(fmt.Sprintf("paper-sims: lockstep N=%d FinalOccupied", lockstepNs[li]), res.FinalOccupied))
	return res.Conflicted
}

// round calls every grid point, recording each call's latency and the live
// heap the collector last marked.
func (s *simRunner) round(rec *recorder) *roundTally {
	t := &roundTally{aliased: make([]int, len(aliasPoints)), conflicted: make([]int, len(lockstepNs))}
	rec.startRound(time.Now())
	for pi := range aliasPoints {
		for call := 0; call < s.p.aliasCalls; call++ {
			t0 := time.Now()
			a := s.aliasCall(pi, call)
			rec.add(time.Since(t0))
			s.sampleHeap()
			t.aliased[pi] += a
		}
	}
	for li := range lockstepNs {
		for call := 0; call < s.p.lockCalls; call++ {
			t0 := time.Now()
			c := s.lockCall(li, call)
			rec.add(time.Since(t0))
			s.sampleHeap()
			t.conflicted[li] += c
		}
	}
	rec.endRound(time.Now())
	s.checkRound(t)
	return t
}

var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// sampleHeap records the live heap the collector marked last. The
// simulators' state lives only inside their calls, and the collector runs
// many times a second while they allocate, so the mean of these samples is
// the live heap of a call in progress. (Their median is no figure: it falls
// between the calls that hold a 2 MiB table and the calls that do not.)
func (s *simRunner) sampleHeap() {
	metrics.Read(liveHeapSample)
	s.live = append(s.live, float64(liveHeapSample[0].Value.Uint64())/(1<<20))
}

// roundTraced is round with a span per call and the allocations of each
// call counted.
func (s *simRunner) roundTraced(rec *recorder) *roundTally {
	t := &roundTally{aliased: make([]int, len(aliasPoints)), conflicted: make([]int, len(lockstepNs))}
	tr := s.tr
	tr.txn++
	rec.startRound(time.Now())
	tr.begin(spRound)
	for pi := range aliasPoints {
		for call := 0; call < s.p.aliasCalls; call++ {
			_, b0 := mallocs()
			start := tr.begin(spAlias)
			a := s.aliasCall(pi, call)
			end := tr.end()
			_, b1 := mallocs()
			rec.add(time.Duration(end - start))
			s.aliasNs += end - start
			s.aliasBytes += b1 - b0
			t.aliased[pi] += a
		}
	}
	for li := range lockstepNs {
		for call := 0; call < s.p.lockCalls; call++ {
			m0, _ := mallocs()
			start := tr.begin(spLockstep)
			c := s.lockCall(li, call)
			end := tr.end()
			m1, _ := mallocs()
			rec.add(time.Duration(end - start))
			s.lockNs += end - start
			s.lockAllocs += m1 - m0
			t.conflicted[li] += c
		}
	}
	tr.end()
	rec.endRound(time.Now())
	s.checkRound(t)
	return t
}

// checkRound runs the checks that need a whole round: W-monotone alias
// rates at N=1024, every lock-step rate against Eq. 8, and the round
// repeating the first round's results (the simulators are deterministic
// in their seeds).
func (s *simRunner) checkRound(t *roundTally) {
	samples := s.p.aliasBatch * s.p.aliasCalls
	var a5, a80 int
	for pi, pt := range aliasPoints {
		if !pt.tagged && pt.n == 1024 {
			if pt.w == 5 {
				a5 = t.aliased[pi]
			} else {
				a80 = t.aliased[pi]
			}
		}
	}
	s.fails.check(checkWMonotone(a5, a80, samples))
	for li, n := range lockstepNs {
		s.fails.check(checkLockstep(n, t.conflicted[li], s.p.lockBatch*s.p.lockCalls))
	}
	if s.first == nil {
		s.first = t
		return
	}
	s.fails.check(checkRepeat(s.first, t))
}

func checkRepeat(first, t *roundTally) error {
	for i := range first.aliased {
		if t.aliased[i] != first.aliased[i] {
			return fmt.Errorf("paper-sims: alias %s aliased %d trials, the first round %d with the same seeds",
				aliasPoints[i], t.aliased[i], first.aliased[i])
		}
	}
	for i := range first.conflicted {
		if t.conflicted[i] != first.conflicted[i] {
			return fmt.Errorf("paper-sims: lockstep N=%d conflicted %d trials, the first round %d with the same seeds",
				lockstepNs[i], t.conflicted[i], first.conflicted[i])
		}
	}
	return nil
}

// warmUp is paper-sims' set-up: one call per grid point on a small batch,
// which builds every table size and hash the measured rounds use.
func warmUp(p simParams, seed uint64) (struct{}, error) {
	for _, pt := range aliasPoints {
		if _, err := alias.Run(aliasConfig(pt, p.warmAlias, seed)); err != nil {
			return struct{}{}, err
		}
	}
	for _, n := range lockstepNs {
		if _, err := lockstep.Run(lockConfig(n, p.warmLock, seed)); err != nil {
			return struct{}{}, err
		}
	}
	return struct{}{}, nil
}

func runPaperSims(cfg config) (*result, error) {
	p := simFull
	if cfg.short {
		p = simShort
	}
	in := genSims(p, cfg.seed)
	_, setupS, err := timeSetup(cfg, func() (struct{}, error) { return warmUp(p, cfg.seed) })
	if err != nil {
		return nil, err
	}
	s := &simRunner{p: p, in: in}
	roundOps := len(aliasPoints)*p.aliasCalls + len(lockstepNs)*p.lockCalls
	d := time.Duration(cfg.seconds * float64(time.Second))
	// A run makes about two hundred calls a second; p99 is taken per window
	// of 512 calls (five beyond it) and reported as the median over windows.
	const window = 512
	if !cfg.trace {
		rec := newRecorder(window, roundOps)
		for deadline := time.Now().Add(d); ; {
			s.round(rec)
			if time.Now().After(deadline) {
				break
			}
		}
		p50, p99 := latencyQuantiles(rec)
		tps := throughput(rec)
		res := &result{}
		s.fails.fill(res)
		setEndToEnd(res, setupS, tps, p50, p99, mean(s.live))
		return res, nil
	}

	res := newLayerResult()
	recA := newRecorder(window, roundOps)
	for deadline := time.Now().Add(d / 2); ; {
		s.round(recA)
		if time.Now().After(deadline) {
			break
		}
	}
	s.tr = newTracer(time.Now(), 0)
	recB := newRecorder(window, roundOps)
	var tally roundTally
	rounds := 0
	for deadline := time.Now().Add(d / 2); ; {
		t := s.roundTraced(recB)
		tally = *t
		rounds++
		if time.Now().After(deadline) {
			break
		}
	}
	aliasTrials := float64(rounds * len(aliasPoints) * p.aliasCalls * p.aliasBatch)
	lockTrials := float64(rounds * len(lockstepNs) * p.lockCalls * p.lockBatch)
	trialUs := ratio(float64(s.aliasNs)/1e3, aliasTrials)
	res.setLayer("alias.trial_us", trialUs)
	res.setLayer("alias.alloc_bytes_per_trial", ratio(float64(s.aliasBytes), aliasTrials))
	res.setLayer("lockstep.trial_us", ratio(float64(s.lockNs)/1e3, lockTrials))
	res.setLayer("lockstep.allocs_per_trial", ratio(float64(s.lockAllocs), lockTrials))
	// Every round repeats the first, so the last round's tally is the rate.
	samples := float64(p.aliasBatch * p.aliasCalls)
	for pi, pt := range aliasPoints {
		res.setLayer("alias.rate."+pt.String(), float64(tally.aliased[pi])/samples)
	}
	for li, n := range lockstepNs {
		res.setLayer(fmt.Sprintf("lockstep.rate.N%d", n), float64(tally.conflicted[li])/float64(p.lockBatch*p.lockCalls))
		res.setLayer(fmt.Sprintf("eq8.rate.N%d", n), eq8(lockC, lockW, lockAlpha, n))
	}
	fillOverhead(res, meanNs(recA), meanNs(recB))
	layerPass(res, p, cfg.seed, trialUs)
	printLayers(os.Stdout, sumLayers(s.tr), recB.ops)
	if err := writeSpans(cfg.spans, s.tr); err != nil {
		os.Stderr.WriteString("perfbench: " + err.Error() + "\n")
	}
	s.fails.fill(res)
	return res, nil
}

// layerPass times, each on its own, the pieces an alias or lock-step trial
// is built from: the warehouse stream constructor, one stream step, the
// Zipf sampler constructor the streams build, and the Footprint operations
// on a tagless table.
func layerPass(res *result, p simParams, seed uint64, aliasTrialUs float64) {
	wcfg := trace.DefaultWarehouse(aliasC)
	t0 := time.Now()
	var threads []*trace.WarehouseThread
	for i := 0; i < p.ctorReps; i++ {
		ths, err := trace.NewWarehouse(wcfg, seed+uint64(i))
		if err != nil {
			panic(err) // the default configuration is valid
		}
		threads = ths
	}
	warehouseUs := time.Since(t0).Seconds() * 1e6 / float64(p.ctorReps)
	res.setLayer("trace.new_warehouse_us", warehouseUs)
	res.setLayer("alias.warehouse_share", ratio(warehouseUs, aliasTrialUs))

	t0 = time.Now()
	var sink addr.Block
	for i := 0; i < p.nextCalls; i++ {
		sink ^= threads[0].Next().Block
	}
	res.setLayer("trace.next_ns", float64(time.Since(t0).Nanoseconds())/float64(p.nextCalls))

	t0 = time.Now()
	var z *xrand.Zipf
	for i := 0; i < p.ctorReps; i++ {
		z = xrand.NewZipf(4096, 1.2)
	}
	res.setLayer("xrand.new_zipf_us", time.Since(t0).Seconds()*1e6/float64(p.ctorReps))

	// A lock-step trial's operations at the largest grid point: alpha
	// reads and one write per step, W steps, then ReleaseAll.
	tab, err := tmbp.NewTable("tagless", lockstepNs[len(lockstepNs)-1], "mask")
	if err != nil {
		panic(err) // a power-of-two size and a known hash
	}
	rng := xrand.New(seed)
	blocks := make([]tmbp.Block, p.fpTrials*lockW*(lockAlpha+1))
	for i := range blocks {
		blocks[i] = tmbp.Block(rng.Uint64n(1 << 40))
	}
	fp := tmbp.NewFootprint(tab, 1)
	m0, _ := mallocs()
	t0 = time.Now()
	j := 0
	for i := 0; i < p.fpTrials; i++ {
		for w := 0; w < lockW; w++ {
			for a := 0; a < lockAlpha; a++ {
				fp.Read(blocks[j])
				j++
			}
			fp.Write(blocks[j])
			j++
		}
		fp.ReleaseAll()
	}
	el := time.Since(t0)
	m1, _ := mallocs()
	ops := float64(len(blocks) + p.fpTrials)
	res.setLayer("otable.footprint_op_ns", float64(el.Nanoseconds())/ops)
	res.setLayer("otable.footprint_allocs_per_op", float64(m1-m0)/ops)
	sinkBlock, sinkZipf = sink, z
}

// Results of the timed constructor and stream calls land here so the
// compiler cannot drop the calls.
var (
	sinkBlock addr.Block
	sinkZipf  *xrand.Zipf
)
