package main

import (
	"errors"
	"fmt"
	"time"

	"tmbp"
	"tmbp/internal/xrand"
	"tmbp/tmds"
)

// scan-mix: two clients share a half-full tmds.Skiplist on a tagged table
// with invisible readers. A fifth of the transactions are range scans
// whose 30-70 block footprints spill the access set; writes beside them
// drive version validation, snapshot extension, promotion, conflicts and
// the contention manager.
type scanParams struct {
	keys      int    // key space [0, keys), also the skiplist capacity
	tableN    uint64 // ownership-table entries
	span      int    // keys covered by one scan range, at most 64
	roundOps  int    // transactions per client per round
	windowOps int    // transactions per latency window
}

var (
	scanFull  = scanParams{keys: 4096, tableN: 4096, span: 64, roundOps: 4096, windowOps: 8192}
	scanShort = scanParams{keys: 512, tableN: 512, span: 64, roundOps: 256, windowOps: 1024}
)

// scanClients is the client count; the key layout gives each its own
// churn keys.
const scanClients = 2

// Key roles. Keys come in groups of eight: one pair member, one static
// key, two churn keys of client 0, two of client 1 and two keys that are
// never present. A pair joins the pair members of groups g and g+4 (32
// keys apart, so most scans see both).
const (
	roleAbsent = iota
	rolePair
	roleStatic
	roleChurn
)

const pairGap = 32

func roleOf(k uint64) (role, owner int) {
	switch r := k % 8; r {
	case 0:
		return rolePair, -1
	case 1:
		return roleStatic, -1
	case 2, 3, 4, 5:
		return roleChurn, int(r-2) / 2
	default:
		return roleAbsent, -1
	}
}

// partner returns the other member of pair key k.
func partner(k uint64) uint64 {
	if (k/8/4)%2 == 0 {
		return k + pairGap
	}
	return k - pairGap
}

// scanLayout is the seeded initial state every check starts from.
type scanLayout struct {
	keys, span  int
	initVal     []uint64 // value of each key present at the start
	initPresent []bool
	pairLows    []uint32   // lower member of every pair
	owned       [][]uint32 // churn keys of each client
}

// churnModel is one client's sequential model of its own churn keys, and
// its tally of committed pair increments (indexed by the pair's lower key).
type churnModel struct {
	client  int
	present []bool
	val     []uint64
	pairInc []uint64
}

func newChurnModel(l *scanLayout, client int) *churnModel {
	return &churnModel{
		client:  client,
		present: append([]bool(nil), l.initPresent...),
		val:     append([]uint64(nil), l.initVal...),
		pairInc: make([]uint64, l.keys),
	}
}

const (
	opScan uint8 = iota
	opGet
	opPair
	opToggle
)

// scanOp is one pre-drawn transaction: a scan from key, a get of key, an
// increment of the pair whose lower member is key, or a toggle of churn
// key (delete if present, else insert val).
type scanOp struct {
	kind uint8
	key  uint32
	val  uint64
}

func genScan(p scanParams, seed uint64) (*scanLayout, [][]scanOp) {
	rng := xrand.New(seed)
	l := &scanLayout{
		keys: p.keys, span: p.span,
		initVal: make([]uint64, p.keys), initPresent: make([]bool, p.keys),
		owned: make([][]uint32, scanClients),
	}
	for k := uint64(0); k < uint64(p.keys); k++ {
		role, owner := roleOf(k)
		switch role {
		case rolePair:
			if partner(k) > k {
				v := rng.Uint64() >> 16
				l.initVal[k], l.initVal[partner(k)] = v, v
				l.initPresent[k], l.initPresent[partner(k)] = true, true
				l.pairLows = append(l.pairLows, uint32(k))
			}
		case roleStatic:
			l.initVal[k], l.initPresent[k] = rng.Uint64()>>8, true
		case roleChurn:
			l.owned[owner] = append(l.owned[owner], uint32(k))
			if k%2 == 0 {
				// One of each two neighbouring churn keys starts present,
				// so the structure starts exactly half full.
				first := rng.Bool()
				l.initPresent[k], l.initPresent[k+1] = first, !first
				l.initVal[k], l.initVal[k+1] = rng.Uint64()>>8, rng.Uint64()>>8
			}
		}
	}
	// Every round holds exactly the same mix, in a seeded order: 20 % scans,
	// 60 % gets, 10 % pair increments and 10 % toggles. Point reads (2-3.5
	// µs) are faster than everything else (5-20 µs), so the median
	// transaction must fall well inside the point reads: with 40 or 50 %
	// of them it fell in the sparse lower tail of the scans, or in the gap,
	// and op_p50_us moved by up to a quarter from run to run. A drawn mix
	// would move that share from seed to seed as well.
	nScan, nPair := p.roundOps/5, p.roundOps/10
	nGet := p.roundOps - nScan - 2*nPair
	ops := make([][]scanOp, scanClients)
	for c := range ops {
		crng := xrand.NewWithStream(seed, uint64(c+1))
		for i := 0; i < p.roundOps; i++ {
			var op scanOp
			switch {
			case i < nScan:
				op = scanOp{kind: opScan, key: uint32(crng.Intn(p.keys - p.span + 1))}
			case i < nScan+nGet:
				op = scanOp{kind: opGet, key: uint32(crng.Intn(p.keys))}
			case i < nScan+nGet+nPair:
				op = scanOp{kind: opPair, key: l.pairLows[crng.Intn(len(l.pairLows))]}
			default:
				own := l.owned[c]
				op = scanOp{kind: opToggle, key: own[crng.Intn(len(own))], val: crng.Uint64() >> 8}
			}
			ops[c] = append(ops[c], op)
		}
		crng.Shuffle(len(ops[c]), func(i, j int) { ops[c][i], ops[c][j] = ops[c][j], ops[c][i] })
	}
	return l, ops
}

// checkKey checks one observation of key k (found, with value v) that any
// attempt made, committed or not.
func (l *scanLayout) checkKey(m *churnModel, k, v uint64, found bool) error {
	role, owner := roleOf(k)
	switch {
	case role == roleAbsent && found:
		return fmt.Errorf("scan-mix: key %d is never inserted but was found", k)
	case role == rolePair && !found:
		return fmt.Errorf("scan-mix: pair key %d missing", k)
	case role == roleStatic && (!found || v != l.initVal[k]):
		return fmt.Errorf("scan-mix: static key %d: found %v value %d, want %d", k, found, v, l.initVal[k])
	case role == roleChurn && owner == m.client && (found != m.present[k] || found && v != m.val[k]):
		return fmt.Errorf("scan-mix: client %d churn key %d: found %v value %d, model %v value %d",
			m.client, k, found, v, m.present[k], m.val[k])
	}
	return nil
}

// checkPair checks the two members of a pair as one attempt read them.
func (l *scanLayout) checkPair(m *churnModel, k, a uint64, foundA bool, b uint64, foundB bool) error {
	if err := l.checkKey(m, k, a, foundA); err != nil {
		return err
	}
	if err := l.checkKey(m, partner(k), b, foundB); err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("scan-mix: pair %d/%d read %d and %d", k, partner(k), a, b)
	}
	return nil
}

// checkScan checks the entries one attempt's scan of [lo, hi] delivered:
// strictly ascending keys inside the bounds, every always-present key
// there, both members of every pair inside the range equal, and the
// client's own churn keys as its model holds them.
func (l *scanLayout) checkScan(m *churnModel, lo, hi uint64, ks, vs []uint64) error {
	var vals [64]uint64
	var mask uint64
	for i, k := range ks {
		if k < lo || k > hi {
			return fmt.Errorf("scan-mix: scan [%d, %d] delivered key %d", lo, hi, k)
		}
		if i > 0 && k <= ks[i-1] {
			return fmt.Errorf("scan-mix: scan [%d, %d] delivered key %d after %d", lo, hi, k, ks[i-1])
		}
		vals[k-lo] = vs[i]
		mask |= 1 << (k - lo)
	}
	for k := lo; k <= hi; k++ {
		off := k - lo
		found := mask>>off&1 == 1
		if err := l.checkKey(m, k, vals[off], found); err != nil {
			return fmt.Errorf("scan [%d, %d]: %w", lo, hi, err)
		}
		if role, _ := roleOf(k); role == rolePair {
			if p := partner(k); p > k && p <= hi && vals[off] != vals[p-lo] {
				return fmt.Errorf("scan-mix: scan [%d, %d]: pair %d/%d read %d and %d", lo, hi, k, p, vals[off], vals[p-lo])
			}
		}
	}
	return nil
}

// checkScanFinal checks a scan of the whole key space after the last
// round: each pair holds its start value plus every client's committed
// increments, each churn key is as its owner's model holds it, and the
// length matches the entries.
func (l *scanLayout) checkScanFinal(models []*churnModel, ks, vs []uint64, n int) error {
	if n != len(ks) {
		return fmt.Errorf("scan-mix: Len = %d but a full scan delivers %d entries", n, len(ks))
	}
	j := 0
	for k := uint64(0); k < uint64(l.keys); k++ {
		if j < len(ks) && ks[j] < k {
			return fmt.Errorf("scan-mix: full scan delivered key %d out of order", ks[j])
		}
		found := j < len(ks) && ks[j] == k
		var v uint64
		if found {
			v = vs[j]
			j++
		}
		role, owner := roleOf(k)
		switch role {
		case rolePair:
			low := min(k, partner(k))
			want := l.initVal[k]
			for _, m := range models {
				want += m.pairInc[low]
			}
			if !found || v != want {
				return fmt.Errorf("scan-mix: pair key %d ends at %d (found %v), want %d", k, v, found, want)
			}
		case roleChurn:
			if err := l.checkKey(models[owner], k, v, found); err != nil {
				return fmt.Errorf("final: %w", err)
			}
		default:
			if err := l.checkKey(models[0], k, v, found); err != nil {
				return fmt.Errorf("final: %w", err)
			}
		}
	}
	if j != len(ks) {
		return fmt.Errorf("scan-mix: full scan delivered key %d outside the key space", ks[j])
	}
	return nil
}

// scanEnv is the program state scan-mix builds in its set-up.
type scanEnv struct {
	mem *tmbp.Memory
	tab tmbp.Table
	rt  *tmbp.STM
	sl  *tmds.Skiplist
	ths []*tmbp.Thread
}

func buildScan(p scanParams, l *scanLayout, seed uint64) (*scanEnv, error) {
	mem := tmbp.NewMemory(tmds.SkiplistWords(p.keys))
	tab, err := tmbp.NewTable("tagged", p.tableN, "fibonacci")
	if err != nil {
		return nil, err
	}
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, InvisibleReaders: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	sl, err := tmds.NewSkiplist(mem, 0, p.keys, towerSeed)
	if err != nil {
		return nil, err
	}
	env := &scanEnv{mem: mem, tab: tab, rt: rt, sl: sl}
	for c := 0; c < scanClients; c++ {
		env.ths = append(env.ths, rt.NewThread())
	}
	err = prefill(rt, p.keys, func(tx *tmbp.Tx, k int) error {
		if !l.initPresent[k] {
			return nil
		}
		_, err := sl.PutTx(tx, uint64(k), l.initVal[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	return env, nil
}

// towerSeed fixes the skiplist's tower heights for every run. The heights
// decide which inserts and deletes rewrite the high-level links every seek
// reads, so drawing them from the run's seed made the conflict rate, and
// with it every figure, depend on the seed.
const towerSeed = 1

// errScanOverflow stops a scan that delivers more entries than its range
// holds keys.
var errScanOverflow = errors.New("scan-mix: scan delivered more entries than its range holds keys")

// scanClient is one scan-mix client.
type scanClient struct {
	clientState
	env       *scanEnv
	lay       *scanLayout
	th        *tmbp.Thread
	ops       []scanOp
	model     *churnModel
	cur       int
	violation error // first failed check of any attempt of the current transaction
	sk, sv    []uint64
	collectFn func(k, v uint64) error
	body      func(*tmbp.Tx) error
	bodyT     func(*tmbp.Tx) error
}

func newScanClient(env *scanEnv, l *scanLayout, ops []scanOp, client int) *scanClient {
	c := &scanClient{
		env: env, lay: l, th: env.ths[client], ops: ops,
		model: newChurnModel(l, client),
		sk:    make([]uint64, 0, l.span), sv: make([]uint64, 0, l.span),
	}
	c.collectFn, c.body, c.bodyT = c.collect, c.run, c.runTraced
	return c
}

func (c *scanClient) state() *clientState { return &c.clientState }

func (c *scanClient) collect(k, v uint64) error {
	if len(c.sk) == cap(c.sk) {
		return errScanOverflow
	}
	c.sk, c.sv = append(c.sk, k), append(c.sv, v)
	return nil
}

func (c *scanClient) note(err error) {
	if err != nil && c.violation == nil {
		c.violation = err
	}
}

func (c *scanClient) run(tx *tmbp.Tx) error {
	op := &c.ops[c.cur]
	sl, k := c.env.sl, uint64(op.key)
	switch op.kind {
	case opScan:
		c.sk, c.sv = c.sk[:0], c.sv[:0]
		hi := k + uint64(c.lay.span) - 1
		if err := sl.RangeScanTx(tx, k, hi, c.collectFn); err != nil {
			return err
		}
		c.note(c.lay.checkScan(c.model, k, hi, c.sk, c.sv))
	case opGet:
		v, ok := sl.GetTx(tx, k)
		c.note(c.lay.checkKey(c.model, k, v, ok))
	case opPair:
		p := partner(k)
		a, okA := sl.GetTx(tx, k)
		b, okB := sl.GetTx(tx, p)
		c.note(c.lay.checkPair(c.model, k, a, okA, b, okB))
		if _, err := sl.PutTx(tx, k, a+1); err != nil {
			return err
		}
		if _, err := sl.PutTx(tx, p, b+1); err != nil {
			return err
		}
	case opToggle:
		v, ok := sl.GetTx(tx, k)
		c.note(c.lay.checkKey(c.model, k, v, ok))
		if ok {
			sl.DeleteTx(tx, k)
		} else if _, err := sl.PutTx(tx, k, op.val); err != nil {
			return err
		}
	}
	return nil
}

func (c *scanClient) runTraced(tx *tmbp.Tx) error {
	tr := c.tr
	depth := len(tr.stack)
	c.clock.enter(tr.begin(spAttempt), &c.st)
	op := &c.ops[c.cur]
	defer func() {
		c.clock.lastOut = tr.unwind(depth)
		if op.kind == opScan {
			// Counted here so a scan a conflict cut short counts the
			// entries it delivered, as its span counts its time.
			c.scanKeys += int64(len(c.sk))
		}
	}()
	sl, k := c.env.sl, uint64(op.key)
	switch op.kind {
	case opScan:
		c.sk, c.sv = c.sk[:0], c.sv[:0]
		hi := k + uint64(c.lay.span) - 1
		tr.begin(spScan)
		err := sl.RangeScanTx(tx, k, hi, c.collectFn)
		tr.end()
		if err != nil {
			return err
		}
		c.note(c.lay.checkScan(c.model, k, hi, c.sk, c.sv))
	case opGet:
		tr.begin(spGet)
		v, ok := sl.GetTx(tx, k)
		tr.end()
		c.note(c.lay.checkKey(c.model, k, v, ok))
	case opPair:
		p := partner(k)
		tr.begin(spGet)
		a, okA := sl.GetTx(tx, k)
		tr.end()
		tr.begin(spGet)
		b, okB := sl.GetTx(tx, p)
		tr.end()
		c.note(c.lay.checkPair(c.model, k, a, okA, b, okB))
		tr.begin(spPut)
		_, err := sl.PutTx(tx, k, a+1)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin(spPut)
		_, err = sl.PutTx(tx, p, b+1)
		tr.end()
		if err != nil {
			return err
		}
	case opToggle:
		tr.begin(spGet)
		v, ok := sl.GetTx(tx, k)
		tr.end()
		c.note(c.lay.checkKey(c.model, k, v, ok))
		if ok {
			tr.begin(spDelete)
			sl.DeleteTx(tx, k)
			tr.end()
		} else {
			tr.begin(spPut)
			_, err := sl.PutTx(tx, k, op.val)
			tr.end()
			if err != nil {
				return err
			}
		}
	}
	c.clock.footprint = tx.FootprintBlocks()
	return nil
}

func (c *scanClient) round(rec *recorder) {
	rec.startRound(time.Now())
	for i := range c.ops {
		c.cur, c.violation = i, nil
		t0 := time.Now()
		err := c.th.Atomic(c.body)
		rec.add(time.Since(t0))
		c.settle(err)
	}
	rec.endRound(time.Now())
}

func (c *scanClient) roundTraced(rec *recorder) {
	tr := c.tr
	rec.startRound(time.Now())
	for i := range c.ops {
		c.cur, c.violation = i, nil
		tr.txn++
		start := tr.begin(spTxn)
		err := c.th.Atomic(c.bodyT)
		end := tr.end()
		c.clock.finish(start, end, &c.st)
		rec.add(time.Duration(end - start))
		c.settle(err)
	}
	rec.endRound(time.Now())
}

// settle applies a committed transaction to the client's model and counts
// it, failed if Atomic returned an error or any attempt failed a check.
func (c *scanClient) settle(err error) {
	if err != nil {
		c.fails.check(fmt.Errorf("scan-mix: client %d transaction %d: %w", c.model.client, c.cur, err))
		return
	}
	op := &c.ops[c.cur]
	switch op.kind {
	case opPair:
		c.model.pairInc[op.key]++
	case opToggle:
		if c.model.present[op.key] = !c.model.present[op.key]; c.model.present[op.key] {
			c.model.val[op.key] = op.val
		}
	}
	c.fails.check(c.violation)
}

func runScanMix(cfg config) (*result, error) {
	p := scanFull
	if cfg.short {
		p = scanShort
	}
	lay, ops := genScan(p, cfg.seed)
	env, setupS, err := timeSetup(cfg, func() (*scanEnv, error) { return buildScan(p, lay, cfg.seed) })
	if err != nil {
		return nil, err
	}
	var clients []stmClient
	var models []*churnModel
	for i := 0; i < scanClients; i++ {
		c := newScanClient(env, lay, ops[i], i)
		clients = append(clients, c)
		models = append(models, c.model)
	}
	final := func(f *failures) {
		var ks, vs []uint64
		var n int
		// A thread of its own reads the whole structure (see kvClient.finalChecks).
		err := env.rt.NewThread().Atomic(func(tx *tmbp.Tx) error {
			ks, vs = ks[:0], vs[:0]
			n = env.sl.LenTx(tx)
			return env.sl.RangeScanTx(tx, 0, uint64(p.keys-1), func(k, v uint64) error {
				ks, vs = append(ks, k), append(vs, v)
				return nil
			})
		})
		if err != nil {
			f.check(fmt.Errorf("scan-mix: final scan: %w", err))
		} else {
			f.check(lay.checkScanFinal(models, ks, vs, n))
		}
		f.check(checkZero("scan-mix: occupied table entries at the end", env.tab.Occupied()))
		f.check(checkZero("scan-mix: ownership records held at the end", env.tab.Stats().Records))
	}
	r := &stmRun{
		cfg: cfg, setupS: setupS, clients: clients, rt: env.rt, tab: env.tab,
		windowOps: p.windowOps, roundOps: p.roundOps, final: final,
	}
	return r.run(env), nil
}
