package stm

import (
	"fmt"
	"runtime"

	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// Contention management: what a thread does between an aborted attempt and
// its retry. The paper's runtime model stops at "self-abort with backoff";
// the literature it sits in (Why TM Should Not Be Obstruction-Free, On the
// Cost of Concurrency in TM) argues the CM policy — not the table — decides
// whether contended workloads make progress, and its progressive policies
// (greedy, timestamp) hinge on knowing *which* transaction denied an
// acquire. The ownership tables surface exactly that: every denial
// carries an otable.ConflictInfo naming the owning writer (or the foreign
// sharer count), extracted from the same state word the acquire linearized
// on. The policy is pluggable: Atomic's retry loop consults a per-thread CM
// at the two points that matter (after a conflict abort — with the
// opponent — and after a completed transaction), and everything else about
// the runtime is policy-agnostic. Policies only ever change scheduling —
// who waits and for how long — never what commits, so serializability is
// identical across them (the oracle tests drive every policy through
// identical workloads to prove it).
//
// Four policies are built in:
//
//   - backoff: randomized exponential backoff in scheduler yields, the
//     original fixed policy. Simple and livelock-free in practice, but it
//     waits the same way whether the system is thrashing or a conflict was
//     a one-off — and regardless of who the opponent is.
//   - adaptive: the same exponential skeleton, with the cap driven by a
//     per-thread EWMA of recent conflict outcomes. A thread whose recent
//     history is conflict-free retries almost immediately (one-off
//     conflicts are cheap); a thread that keeps aborting backs off toward
//     the full budget (thrashing is expensive). The feedback state is
//     thread-local — reading it costs nothing and contends with no one.
//   - timestamp: the greedy policy of the Scherer/Scott and Guerraoui
//     lineage, adapted to self-abort. A conflicted transaction draws a
//     monotone timestamp on its first abort (lower = older = senior) and
//     publishes it. When the denying opponent is older, the aborter waits
//     specifically for that opponent to complete an attempt — watching its
//     published progress counter, bounded by BackoffMax yields — because
//     an attempt completion is exactly when the contested slot is
//     released. When the aborter itself is older (or the opponent is
//     anonymous/unstamped), it retries after a single yield: its seniority
//     entitles it to the slot as soon as the junior holder finishes.
//   - switching: abort-rate-driven policy switching. Runs the cheap fixed
//     backoff while the thread's EWMA abort rate is low (uncontended
//     phases pay nothing for opponent tracking) and switches to the
//     opponent-aware timestamp policy when the rate crosses switchUp,
//     back when it falls below switchDown — hysteresis so a workload
//     sitting at the boundary does not chatter between modes.
//
// Custom policies implement CM and are installed per-runtime through
// Config.NewCM; the built-ins are selected by name through Config.CM.

// CM is the per-thread contention manager consulted by Atomic's retry
// loop. Implementations are owned by a single thread and need no internal
// synchronization (shared feedback state, such as timestamp's published
// stamp, must synchronize on its own). Aborted may block; that is the point — but a
// block must be interruptible: every built-in policy waits through the
// thread's waiter, whose yield loops poll the in-flight AtomicCtx context
// and give up as soon as it is cancelled. Custom policies that wait should
// poll Thread.Cancelled the same way, or cancellation is only honored
// between attempts.
type CM interface {
	// Kind names the policy ("backoff", "adaptive", "timestamp", ...).
	Kind() string
	// Aborted is called after a conflict-aborted attempt, before the retry.
	// attempt is the 1-based attempt number that just failed; footprint is
	// the access-set size the attempt had reached when it died; opp names
	// the opponent whose holding denied the fatal acquire (the owning
	// writer's TxID, or the foreign reader count — see otable.ConflictInfo).
	// The policy waits here as it sees fit.
	Aborted(attempt, footprint int, opp otable.ConflictInfo)
	// Committed is called when a transaction completes — commit or
	// terminal non-conflict abort (user error, attempt budget) — with the
	// final access-set size. Policies reset per-transaction state here.
	Committed(footprint int)
}

// CMKinds lists the built-in contention-management policies.
func CMKinds() []string {
	return []string{"backoff", "adaptive", "timestamp", "switching"}
}

// validCM reports whether name selects a built-in policy ("" = backoff).
func validCM(name string) bool {
	if name == "" {
		return true
	}
	for _, k := range CMKinds() {
		if k == name {
			return true
		}
	}
	return false
}

// newCM builds thread th's contention manager from the runtime config.
func newCM(rt *Runtime, th *Thread) CM {
	base, max := rt.cfg.BackoffBase, rt.cfg.BackoffMax
	if rt.cfg.NewCM != nil {
		return rt.cfg.NewCM(th)
	}
	w := &th.w
	switch rt.cfg.CM {
	case "", "backoff":
		return &backoffCM{w: w, base: base, max: max}
	case "adaptive":
		return &adaptiveCM{w: w, base: base, max: max}
	case "timestamp":
		return &timestampCM{w: w, rt: rt, ctr: th.ctr, base: base, max: max}
	case "switching":
		return &switchingCM{
			bo: backoffCM{w: w, base: base, max: max},
			ts: timestampCM{w: w, rt: rt, ctr: th.ctr, base: base, max: max},
		}
	default:
		// Config.CM was validated in New; this is unreachable.
		panic(fmt.Sprintf("stm: unknown CM policy %q", rt.cfg.CM))
	}
}

// waiter is the one waiting primitive of the runtime: every yield loop a
// built-in policy (or the serial-fallback gate) parks in goes through a
// waiter method, and every iteration of every such loop polls the owning
// thread's in-flight context. That single choke point is what makes the
// whole runtime's waits interruptible — cancelling an AtomicCtx context
// unparks the thread within one scheduler yield, no matter which policy it
// is waiting under, without any wait-side channels or timers. When no
// context is in flight (plain Atomic) the poll is a nil check.
//
// A waiter is embedded in its Thread and owned by it; like the policies it
// serves, it needs no synchronization.
type waiter struct {
	rng *xrand.Rand
	th  *Thread
}

// backoff is the shared waiting skeleton: yield the processor a randomized
// number of times, bounded by an exponentially growing limit. Yielding
// (rather than spinning) lets the conflicting transaction finish and —
// critically — reshuffles the goroutine schedule, which breaks the
// phase-locked retry cycles that deterministic workloads otherwise fall
// into on machines with few cores. base < 0 disables waiting entirely.
// The wait ends early when the thread's context is cancelled.
func (w *waiter) backoff(base, maxYields, attempt int) {
	if base < 0 {
		return
	}
	limit := base << uint(min(attempt-1, 20))
	if limit > maxYields {
		limit = maxYields
	}
	if limit <= 0 {
		return
	}
	yields := w.rng.Intn(limit) + 1
	for i := 0; i < yields; i++ {
		if w.th.cancelled() {
			return
		}
		runtime.Gosched()
	}
}

// backoffCM is the original fixed policy: randomized exponential backoff
// between BackoffBase and BackoffMax scheduler yields.
type backoffCM struct {
	w         *waiter
	base, max int
}

func (c *backoffCM) Kind() string { return "backoff" }

func (c *backoffCM) Aborted(attempt, _ int, _ otable.ConflictInfo) {
	c.w.backoff(c.base, c.max, attempt)
}

func (c *backoffCM) Committed(int) {}

// adaptiveEWMAShift sets the abort-rate smoothing: each outcome moves the
// estimate 1/8 of the way toward 0 (complete) or 1 (conflict), so the
// policy reacts within a handful of transactions without chattering on
// single outliers.
const adaptiveEWMAShift = 3

// adaptiveCM scales the backoff cap with the thread's recent abort rate.
// rate is a thread-local EWMA over conflict outcomes in [0, 1]: near 0 the
// cap collapses to BackoffBase (immediate-ish retry), near 1 it reaches
// the full BackoffMax.
type adaptiveCM struct {
	w         *waiter
	base, max int
	rate      float64
}

func (c *adaptiveCM) Kind() string { return "adaptive" }

func (c *adaptiveCM) Aborted(attempt, _ int, _ otable.ConflictInfo) {
	c.rate += (1 - c.rate) / (1 << adaptiveEWMAShift)
	budget := c.base + int(c.rate*float64(c.max-c.base))
	c.w.backoff(c.base, budget, attempt)
}

func (c *adaptiveCM) Committed(int) {
	c.rate -= c.rate / (1 << adaptiveEWMAShift)
}

// seniorYieldCap bounds the backoff of a *senior* contender: an eighth of
// the junior budget. A senior transaction retries far sooner than anyone
// deferring to it, but still with an exponentially growing wait — a bare
// immediate retry would spin unboundedly against a long-running holder,
// burning an abort per scheduler slice for nothing (the deterministic
// suite's convoy scenario is exactly that trap).
func seniorYieldCap(max int) int {
	c := max / 8
	if c < 1 {
		c = 1
	}
	return c
}

// awaitOpponent parks the caller until the opponent completes the attempt
// it was observed in — its progress counter advances, meaning commit or
// rollback has released every slot it held, including the contested one —
// or the yield budget runs out (the opponent may be descheduled; a bounded
// wait keeps the caller live regardless). oppStamp is the opponent stamp
// the caller based its decision on: a stamp change also ends the wait,
// since it means the observed transaction is gone. Like backoff, the wait
// ends early when the thread's context is cancelled.
func (w *waiter) awaitOpponent(opp *threadCounters, oppStamp uint64, maxYields int) {
	done := opp.completions()
	for i := 0; i < maxYields; i++ {
		if w.th.cancelled() {
			return
		}
		runtime.Gosched()
		if opp.completions() != done || opp.stamp.Load() != oppStamp {
			return
		}
	}
}

// timestampCM is the greedy/timestamp policy: conflicted transactions are
// ordered by age (a monotone stamp drawn from the runtime clock on the
// transaction's first abort — conflict-free transactions never touch the
// clock), and the junior side of a conflict waits specifically for its
// senior opponent to complete an attempt. Unlike the backoff family it
// never waits "into the void": either the one transaction whose completion
// frees the slot is identified and watched, or the wait collapses to a
// single yield.
type timestampCM struct {
	w         *waiter
	rt        *Runtime
	ctr       *threadCounters
	base, max int
	stamp     uint64 // this transaction's age; 0 until its first abort
}

func (c *timestampCM) Kind() string { return "timestamp" }

func (c *timestampCM) Aborted(attempt, _ int, opp otable.ConflictInfo) {
	if c.stamp == 0 {
		c.stamp = c.rt.clock.Add(1)
		c.ctr.stamp.Store(c.stamp)
	}
	if c.base < 0 {
		return // waiting disabled: decision only (benchmarks)
	}
	if w, ok := opp.Writer(); ok {
		if ob := c.rt.counterFor(w); ob != nil && ob != c.ctr {
			if os := ob.stamp.Load(); os != 0 && os < c.stamp {
				// The opponent is senior: wait for that specific
				// transaction to complete an attempt (releasing the
				// contested slot), not a blind backoff.
				c.w.awaitOpponent(ob, os, c.max)
				return
			}
			// We are senior (or the opponent never conflicted, so it has
			// no standing to be yielded to): retry on the short senior
			// leash and take the slot at the release race.
			c.w.backoff(c.base, seniorYieldCap(c.max), attempt)
			return
		}
	}
	// Anonymous readers or an unregistered opponent: no one specific to
	// wait for — fall back to the randomized backoff skeleton.
	c.w.backoff(c.base, c.max, attempt)
}

func (c *timestampCM) Committed(int) {
	if c.stamp != 0 {
		c.stamp = 0
		c.ctr.stamp.Store(0)
	}
}

// Switching thresholds: the EWMA abort rate above which the switching
// policy engages opponent-aware mode, and the lower rate at which it drops
// back to fixed backoff. The gap is hysteresis against mode chatter.
const (
	switchUp   = 0.5
	switchDown = 0.125
)

// switchingCM switches between two complete policies on the thread's EWMA
// abort rate: fixed backoff while conflicts are rare (its decision cost is
// near zero), the opponent-aware timestamp policy while the thread is
// thrashing (precise waits beat blind ones exactly when aborts dominate).
// Both sub-policies are embedded by value, so switching allocates nothing.
type switchingCM struct {
	rate     float64
	opponent bool // true = timestamp mode
	bo       backoffCM
	ts       timestampCM
}

func (c *switchingCM) Kind() string { return "switching" }

func (c *switchingCM) Aborted(attempt, footprint int, opp otable.ConflictInfo) {
	c.rate += (1 - c.rate) / (1 << adaptiveEWMAShift)
	if !c.opponent && c.rate >= switchUp {
		c.opponent = true
	}
	if c.opponent {
		c.ts.Aborted(attempt, footprint, opp)
	} else {
		c.bo.Aborted(attempt, footprint, opp)
	}
}

func (c *switchingCM) Committed(footprint int) {
	c.rate -= c.rate / (1 << adaptiveEWMAShift)
	if c.opponent && c.rate <= switchDown {
		c.opponent = false
	}
	// The timestamp half owns published per-transaction state (the stamp);
	// clear it on every completion regardless of the active mode.
	c.ts.Committed(footprint)
}
