package main

import (
	"fmt"
	"time"

	"tmbp"
	"tmbp/internal/xrand"
	"tmbp/tmds"
)

// kv-point: one client runs short transactions of point operations on a
// tmds.Map whose memory is larger than L2, on a tagged table with the
// default runtime configuration (acquiring reads, backoff CM). With one
// client nothing conflicts, and footprints stay inside the access set's
// 16-entry inline region, so this prices the plain transaction path.
type kvParams struct {
	keys      int     // keys present in the map, all from the start
	buckets   uint64  // map buckets: one 64-byte block each
	tableN    uint64  // ownership-table entries
	zipfS     float64 // key popularity skew
	extraMean float64 // operations per transaction: 1 + Geometric(mean extraMean) ...
	maxOps    int     // ... capped so the footprint stays inline
	putFrac   float64 // share of operations that read and increment
	roundTxns int     // transactions per round
	windowOps int     // transactions per latency window
}

var (
	kvFull = kvParams{
		keys: 1 << 16, buckets: 1 << 18, tableN: 1 << 16, zipfS: 0.9,
		extraMean: 4, maxOps: 10, putFrac: 0.25, roundTxns: 1 << 14, windowOps: 1 << 16,
	}
	kvShort = kvParams{
		keys: 1 << 10, buckets: 1 << 12, tableN: 1 << 10, zipfS: 0.9,
		extraMean: 4, maxOps: 10, putFrac: 0.25, roundTxns: 1 << 10, windowOps: 1 << 12,
	}
)

// kvInputs is one round of transactions, the same in every round.
type kvInputs struct {
	keys []uint32 // key of each operation
	put  []bool   // the operation increments the value it read
	txns []int32  // transaction i runs operations [txns[i], txns[i+1])
	init []uint64 // value of each key before the first round
}

func genKV(p kvParams, seed uint64) *kvInputs {
	rng := xrand.New(seed)
	// Popularity rank r names key perm[r], so hot keys are spread over
	// the map instead of sitting in neighbouring buckets.
	perm := rng.Perm(p.keys)
	zipf := xrand.NewZipf(p.keys, p.zipfS)
	in := &kvInputs{init: make([]uint64, p.keys), txns: make([]int32, 0, p.roundTxns+1)}
	for k := range in.init {
		in.init[k] = rng.Uint64() >> 16 // room for increments
	}
	geomP := 1 / (1 + p.extraMean) // Geometric(p) has mean (1-p)/p
	for t := 0; t < p.roundTxns; t++ {
		in.txns = append(in.txns, int32(len(in.keys)))
		n := min(1+rng.Geometric(geomP), p.maxOps)
		for j := 0; j < n; j++ {
			in.keys = append(in.keys, uint32(perm[zipf.Sample(rng)]))
			in.put = append(in.put, rng.Float64() < p.putFrac)
		}
	}
	in.txns = append(in.txns, int32(len(in.keys)))
	return in
}

// kvEnv is the program state kv-point builds in its set-up.
type kvEnv struct {
	mem *tmbp.Memory
	tab tmbp.Table
	rt  *tmbp.STM
	th  *tmbp.Thread
	m   *tmds.Map
}

func buildKV(p kvParams, in *kvInputs, seed uint64) (*kvEnv, error) {
	mem := tmbp.NewMemory(8 * (1 + int(p.buckets))) // header block + one block per bucket
	tab, err := tmbp.NewTable("tagged", p.tableN, "fibonacci")
	if err != nil {
		return nil, err
	}
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: seed})
	if err != nil {
		return nil, err
	}
	m, err := tmds.NewMap(mem, 0, p.buckets)
	if err != nil {
		return nil, err
	}
	env := &kvEnv{mem: mem, tab: tab, rt: rt, th: rt.NewThread(), m: m}
	err = prefill(rt, p.keys, func(tx *tmbp.Tx, k int) error {
		_, err := m.PutTx(tx, uint64(k), in.init[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	return env, nil
}

// kvClient is the single kv-point client. Its model is the value every key
// must hold given the transactions committed so far.
type kvClient struct {
	clientState
	env   *kvEnv
	in    *kvInputs
	model []uint64
	cur   int      // transaction being run
	reads []uint64 // value each operation of the current attempt read
	found []bool
	body  func(*tmbp.Tx) error
	bodyT func(*tmbp.Tx) error
}

func newKVClient(env *kvEnv, in *kvInputs, p kvParams) *kvClient {
	c := &kvClient{
		env:   env,
		in:    in,
		model: append([]uint64(nil), in.init...),
		reads: make([]uint64, p.maxOps),
		found: make([]bool, p.maxOps),
	}
	c.body, c.bodyT = c.run, c.runTraced
	return c
}

func (c *kvClient) state() *clientState { return &c.clientState }

func (c *kvClient) run(tx *tmbp.Tx) error {
	lo, hi := c.in.txns[c.cur], c.in.txns[c.cur+1]
	for j := lo; j < hi; j++ {
		k := uint64(c.in.keys[j])
		v, ok := c.env.m.GetTx(tx, k)
		c.reads[j-lo], c.found[j-lo] = v, ok
		if c.in.put[j] {
			if _, err := c.env.m.PutTx(tx, k, v+1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *kvClient) runTraced(tx *tmbp.Tx) error {
	tr := c.tr
	depth := len(tr.stack)
	c.clock.enter(tr.begin(spAttempt), &c.st)
	defer func() { c.clock.lastOut = tr.unwind(depth) }()
	lo, hi := c.in.txns[c.cur], c.in.txns[c.cur+1]
	for j := lo; j < hi; j++ {
		k := uint64(c.in.keys[j])
		tr.begin(spGet)
		v, ok := c.env.m.GetTx(tx, k)
		tr.end()
		c.reads[j-lo], c.found[j-lo] = v, ok
		if c.in.put[j] {
			tr.begin(spPut)
			_, err := c.env.m.PutTx(tx, k, v+1)
			tr.end()
			if err != nil {
				return err
			}
		}
	}
	c.clock.footprint = tx.FootprintBlocks()
	return nil
}

func (c *kvClient) round(rec *recorder) {
	rec.startRound(time.Now())
	for i := 0; i+1 < len(c.in.txns); i++ {
		c.cur = i
		t0 := time.Now()
		err := c.env.th.Atomic(c.body)
		rec.add(time.Since(t0))
		c.fails.check(c.verify(err))
	}
	rec.endRound(time.Now())
}

func (c *kvClient) roundTraced(rec *recorder) {
	tr := c.tr
	rec.startRound(time.Now())
	for i := 0; i+1 < len(c.in.txns); i++ {
		c.cur = i
		tr.txn++
		start := tr.begin(spTxn)
		err := c.env.th.Atomic(c.bodyT)
		end := tr.end()
		c.clock.finish(start, end, &c.st)
		rec.add(time.Duration(end - start))
		c.fails.check(c.verify(err))
	}
	rec.endRound(time.Now())
}

// verify checks the committed transaction's reads against the model and
// applies its increments to the model.
func (c *kvClient) verify(err error) error {
	if err != nil {
		return fmt.Errorf("kv-point: transaction %d: %w", c.cur, err)
	}
	lo, hi := c.in.txns[c.cur], c.in.txns[c.cur+1]
	var bad error
	for j := lo; j < hi; j++ {
		k := c.in.keys[j]
		want := c.model[k]
		if bad == nil {
			bad = checkKVRead(k, want, c.reads[j-lo], c.found[j-lo])
		}
		if c.in.put[j] {
			c.model[k] = want + 1
		}
	}
	return bad
}

// checkKVRead checks one committed read against the model's value.
func checkKVRead(k uint32, want, got uint64, found bool) error {
	if !found {
		return fmt.Errorf("kv-point: key %d missing, model holds %d", k, want)
	}
	if got != want {
		return fmt.Errorf("kv-point: key %d read %d, model holds %d", k, got, want)
	}
	return nil
}

// finalChecks compares the whole map, its length, the table occupancy and
// the abort count with what one client on a tagged table must leave. The
// map is read by a thread of its own, whose large access set is garbage
// before the live heap is measured.
func (c *kvClient) finalChecks(f *failures) {
	env := c.env
	var got []uint64
	var found []bool
	var n int
	err := env.rt.NewThread().Atomic(func(tx *tmbp.Tx) error {
		got, found = got[:0], found[:0]
		for k := range c.model {
			v, ok := env.m.GetTx(tx, uint64(k))
			got, found = append(got, v), append(found, ok)
		}
		n = env.m.LenTx(tx)
		return nil
	})
	if err != nil {
		f.check(fmt.Errorf("kv-point: final read: %w", err))
	} else {
		f.check(checkKVFinal(c.model, got, found, n))
	}
	f.check(checkZero("kv-point: occupied table entries at the end", env.tab.Occupied()))
	f.check(checkZero("kv-point: aborts of a single client", env.rt.Stats().Aborts))
}

// checkKVFinal compares the map's final contents and length with the model.
func checkKVFinal(model, got []uint64, found []bool, n int) error {
	if n != len(model) {
		return fmt.Errorf("kv-point: Len = %d, model holds %d keys", n, len(model))
	}
	for k, want := range model {
		if err := checkKVRead(uint32(k), want, got[k], found[k]); err != nil {
			return fmt.Errorf("final contents: %w", err)
		}
	}
	return nil
}

func checkZero(what string, v uint64) error {
	if v != 0 {
		return fmt.Errorf("%s: %d, want 0", what, v)
	}
	return nil
}

func runKVPoint(cfg config) (*result, error) {
	p := kvFull
	if cfg.short {
		p = kvShort
	}
	in := genKV(p, cfg.seed)
	env, setupS, err := timeSetup(cfg, func() (*kvEnv, error) { return buildKV(p, in, cfg.seed) })
	if err != nil {
		return nil, err
	}
	c := newKVClient(env, in, p)
	r := &stmRun{
		cfg: cfg, setupS: setupS, clients: []stmClient{c}, rt: env.rt, tab: env.tab,
		windowOps: p.windowOps, roundOps: p.roundTxns, final: c.finalChecks,
	}
	return r.run(env), nil
}
