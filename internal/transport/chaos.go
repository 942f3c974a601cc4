package transport

import (
	"math/rand"
	"sync/atomic"
	"time"

	rt "dsteiner/internal/runtime"
)

// Fault kinds a Chaos transport can inject. Worker crash-at-phase is the
// fifth failure mode of the chaos matrix; it lives in internal/faultpoint
// (compiled into the solve path itself) rather than here, because a crash
// belongs to the rank body, not the transport seam.
const (
	// ChaosDelay injects seeded sleeps into transport operations without
	// ever failing anything: the timing-perturbation control case. A
	// delayed run must stay byte-identical to the fault-free run.
	ChaosDelay = "delay"
	// ChaosPeerDrop severs one mesh link abruptly mid-solve.
	ChaosPeerDrop = "peer-drop"
	// ChaosCoordDrop severs the coordinator link abruptly mid-solve.
	ChaosCoordDrop = "coord-drop"
	// ChaosTruncate writes a cut-short frame onto a mesh link and closes
	// it, exercising the decoder's truncation handling end to end.
	ChaosTruncate = "truncate"
)

// ChaosConfig parameterizes one Chaos transport. The same (Kind, Seed,
// After) triple always injects the same fault at the same operation count,
// which is what makes a chaos failure reproducible from its matrix cell.
type ChaosConfig struct {
	// Kind selects the fault (Chaos* constants). Empty disables injection
	// (the shim still counts operations).
	Kind string
	// Seed feeds the PRNG that picks the fault's target worker and, when
	// After is 0, the operation count to fire at.
	Seed int64
	// After is the transport-operation count (Deliver/Barrier/Allreduce/
	// Exchange/StartTraversal, summed) at which the fault fires. 0 derives a
	// count from Seed.
	After int64
	// MaxDelay bounds each injected sleep of a ChaosDelay run (default
	// 2ms).
	MaxDelay time.Duration
}

// injectedFaults counts connection-level faults this process's Chaos shims
// have fired, alongside faultpoint.Injected for the /stats faults block.
var injectedFaults atomic.Int64

// InjectedFaults returns the process-wide count of connection-level faults
// injected by Chaos transports.
func InjectedFaults() int64 { return injectedFaults.Load() }

// chaosOps sums the transport operations stepped by every Chaos shim in
// this process. The chaos matrix probes it with a fault-free shim to learn
// how many operations one solve performs, then places After triggers
// inside that span.
var chaosOps atomic.Int64

// ChaosOpsTotal returns the process-wide count of transport operations
// observed by Chaos shims.
func ChaosOpsTotal() int64 { return chaosOps.Load() }

// Chaos wraps the worker-side TCP transport and injects one deterministic
// connection-level fault (or, for ChaosDelay, continuous seeded timing
// perturbation) into the runtime.Transport seam. Everything else delegates
// to the wrapped transport, so a Chaos session is a real session — faults
// hit real sockets and real decode paths, not mocks.
type Chaos struct {
	inner *TCP
	cfg   ChaosConfig

	ops   atomic.Int64
	fired atomic.Bool

	// target is the peer worker a peer-scoped fault hits, picked from Seed
	// at construction; delayGen seeds the per-op delay decision of a
	// ChaosDelay run.
	target   int
	delayGen int64
}

var _ rt.Transport = (*Chaos)(nil)

// NewChaos wraps t with fault injection per cfg.
func NewChaos(t *TCP, cfg ChaosConfig) *Chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.After <= 0 {
		// A small-graph solve runs hundreds of transport ops; keep the
		// derived trigger early enough to land inside one.
		cfg.After = 2 + rng.Int63n(64)
	}
	c := &Chaos{inner: t, cfg: cfg, delayGen: rng.Int63()}
	// Pick the peer target among the live mesh links, deterministically
	// from the seed.
	var live []int
	for w, p := range t.peers {
		if p != nil {
			live = append(live, w)
		}
	}
	if len(live) > 0 {
		c.target = live[rng.Intn(len(live))]
	} else {
		c.target = -1
	}
	return c
}

// Ops returns the transport operations counted so far (test introspection).
func (c *Chaos) Ops() int64 { return c.ops.Load() }

// Fired reports whether the configured fault has been injected.
func (c *Chaos) Fired() bool { return c.fired.Load() }

// step counts one transport operation and fires the configured fault when
// the count crosses the trigger.
func (c *Chaos) step() {
	n := c.ops.Add(1)
	chaosOps.Add(1)
	switch c.cfg.Kind {
	case "":
		return
	case ChaosDelay:
		// A seeded hash of (delayGen, n) decides each op's sleep, so two
		// runs with the same seed perturb the same operations. Sleeps only;
		// nothing fails, and results must stay byte-identical.
		h := uint64(c.delayGen) ^ uint64(n)*0x9e3779b97f4a7c15
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
		if h%4 == 0 {
			c.fired.Store(true)
			time.Sleep(time.Duration(h % uint64(c.cfg.MaxDelay)))
		}
		return
	}
	if n != c.cfg.After || !c.fired.CompareAndSwap(false, true) {
		return
	}
	injectedFaults.Add(1)
	switch c.cfg.Kind {
	case ChaosPeerDrop:
		if c.target < 0 || !c.inner.InjectPeerDrop(c.target) {
			c.inner.InjectCoordDrop() // single-worker fleet: no mesh to cut
		}
	case ChaosCoordDrop:
		c.inner.InjectCoordDrop()
	case ChaosTruncate:
		if c.target < 0 || !c.inner.InjectPeerTruncate(c.target) {
			c.inner.InjectCoordDrop()
		}
	}
}

// Attach implements runtime.Transport.
func (c *Chaos) Attach(host rt.TransportHost) { c.inner.Attach(host) }

// Deliver implements runtime.Transport.
func (c *Chaos) Deliver(dest int, batch []rt.Msg) {
	c.step()
	c.inner.Deliver(dest, batch)
}

// Barrier implements runtime.Transport.
func (c *Chaos) Barrier() {
	c.step()
	c.inner.Barrier()
}

// AllreduceInt64 implements runtime.Transport.
func (c *Chaos) AllreduceInt64(op rt.CollOp, x int64) int64 {
	c.step()
	return c.inner.AllreduceInt64(op, x)
}

// Exchange implements runtime.Transport.
func (c *Chaos) Exchange(blobs []rt.Blob) []rt.Blob {
	c.step()
	return c.inner.Exchange(blobs)
}

// StartTraversal implements runtime.Transport.
func (c *Chaos) StartTraversal(seq uint64) chan struct{} {
	c.step()
	return c.inner.StartTraversal(seq)
}

// Stats implements runtime.Transport.
func (c *Chaos) Stats() rt.TransportStats { return c.inner.Stats() }

// Close implements runtime.Transport.
func (c *Chaos) Close() error { return c.inner.Close() }
