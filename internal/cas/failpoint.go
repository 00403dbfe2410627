package cas

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"
)

// Failpoints are the store's deterministic fault-injection seam: every
// operation that touches the backing filesystem consults the handle's
// Injector (if any) immediately BEFORE performing the real I/O, and treats
// a non-nil error exactly as it would treat the real thing. Injected
// faults therefore never corrupt on-disk state — the strongest invariant
// the fault soak asserts is that a store subjected to faults at every
// failpoint still reopens reporting zero damage. The one deliberate
// exception is TornWrite, which leaves a partial blob temp file behind
// (never renamed into place), modelling a crash mid-write; open-time tmp
// cleanup handles it like any other stranded temp.

// Op names one failpoint.
type Op string

const (
	// OpBlobWrite fires before a new blob's temp file is written.
	OpBlobWrite Op = "blob-write"
	// OpBlobRename fires before a written temp file is renamed into place.
	OpBlobRename Op = "blob-rename"
	// OpBlobRead fires before a blob is read back; an injected error is
	// reported as-is and never quarantines the (healthy) blob.
	OpBlobRead Op = "blob-read"
	// OpJournalAppend fires before a record line is appended.
	OpJournalAppend Op = "journal-append"
	// OpLock fires before GC/Reset convert the store lock to exclusive;
	// injectors conventionally return ErrBusy here.
	OpLock Op = "lock"
	// OpJournalReopen fires before a compaction reopens the journal it
	// renamed into place; a failure there closes the handle.
	OpJournalReopen Op = "journal-reopen"
)

// AllOps lists every failpoint, for harnesses that fault everything.
var AllOps = []Op{OpBlobWrite, OpBlobRename, OpBlobRead, OpJournalAppend, OpLock, OpJournalReopen}

// Injector decides, per failpoint firing, whether the operation fails.
// A nil return lets the real I/O proceed. Implementations must be safe
// for concurrent use.
type Injector interface {
	Fail(op Op) error
}

// SetFailpoints installs (or, with nil, removes) the handle's injector.
func (d *Dir) SetFailpoints(inj Injector) {
	d.injMu.Lock()
	d.inj = inj
	d.injMu.Unlock()
}

// failpoint consults the installed injector for one firing.
func (d *Dir) failpoint(op Op) error {
	d.injMu.Lock()
	inj := d.inj
	d.injMu.Unlock()
	if inj == nil {
		return nil
	}
	return inj.Fail(op)
}

// TornWrite is an injectable blob-write error that additionally leaves a
// truncated temp file behind (Keep bytes of the intended content),
// simulating a crash or ENOSPC partway through the write. The temp file is
// never renamed into place, so it is litter, not damage: the next Open
// clears it.
type TornWrite struct {
	Keep int
	Err  error // optional underlying cause; nil means a generic write error
}

func (t *TornWrite) Error() string {
	if t.Err != nil {
		return fmt.Sprintf("torn write (%d bytes): %v", t.Keep, t.Err)
	}
	return fmt.Sprintf("torn write (%d bytes)", t.Keep)
}

func (t *TornWrite) Unwrap() error { return t.Err }

// failOps is the always-fail injector behind FailOps and ParseFaults.
type failOps struct {
	err error
	ops map[Op]bool
}

func (f *failOps) Fail(op Op) error {
	if f.ops[op] {
		return f.err
	}
	return nil
}

// FailOps returns an injector that fails every firing of the listed ops
// with err, and passes every other op through.
func FailOps(err error, ops ...Op) Injector {
	m := make(map[Op]bool, len(ops))
	for _, op := range ops {
		m[op] = true
	}
	return &failOps{err: err, ops: m}
}

// ScriptStep is one consumable entry of a Script.
type ScriptStep struct {
	Op  Op
	Err error
	N   int // fire for the next N matching calls; 0 means once
}

// Script fails failpoint firings according to an ordered, consumable list:
// each firing of op consumes the first unexhausted step for that op, and
// once every step for an op is spent further firings pass. Deterministic
// by construction — the "fail once, then heal" tests are built on it.
type Script struct {
	mu    sync.Mutex
	steps []ScriptStep
}

// NewScript builds a Script; steps with N == 0 fire once.
func NewScript(steps ...ScriptStep) *Script {
	s := &Script{steps: make([]ScriptStep, len(steps))}
	copy(s.steps, steps)
	for i := range s.steps {
		if s.steps[i].N == 0 {
			s.steps[i].N = 1
		}
	}
	return s
}

func (s *Script) Fail(op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.steps {
		if s.steps[i].Op != op || s.steps[i].N <= 0 {
			continue
		}
		s.steps[i].N--
		return s.steps[i].Err
	}
	return nil
}

// Plan is the seeded probabilistic injector behind the fault soak: each op
// fires with its configured probability, and the error flavor (transient
// vs permanent, torn write, ENOSPC, ErrBusy) is drawn from the same seeded
// stream, so a soak run is fully reproducible from its seed.
type Plan struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate map[Op]float64
}

// NewPlan builds a Plan from a seed and per-op firing probabilities; ops
// absent from rate never fire.
func NewPlan(seed int64, rate map[Op]float64) *Plan {
	r := make(map[Op]float64, len(rate))
	for op, p := range rate {
		r[op] = p
	}
	return &Plan{rng: rand.New(rand.NewSource(seed)), rate: r}
}

func (p *Plan) Fail(op Op) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	prob, ok := p.rate[op]
	if !ok || prob <= 0 || p.rng.Float64() >= prob {
		return nil
	}
	switch op {
	case OpLock:
		return fmt.Errorf("injected: %w", ErrBusy)
	case OpBlobWrite:
		switch p.rng.Intn(3) {
		case 0:
			return &TornWrite{Keep: p.rng.Intn(64)}
		case 1:
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		default:
			return MarkTransient(fmt.Errorf("injected transient blob-write error"))
		}
	case OpBlobRename, OpBlobRead, OpJournalAppend:
		if p.rng.Intn(2) == 0 {
			return MarkTransient(fmt.Errorf("injected transient %s error", op))
		}
		return fmt.Errorf("injected %s error", op)
	}
	return fmt.Errorf("injected %s error", op)
}

// ParseFaults parses the CH_IMAGE_CAS_FAULTS specification: a
// comma-separated list of op names, each optionally suffixed ":transient"
// to make the injected error retryable. Every listed op fails on every
// firing — the deterministic shape the CLI degraded-contract test needs.
func ParseFaults(spec string) (Injector, error) {
	known := make(map[Op]bool, len(AllOps))
	for _, op := range AllOps {
		known[op] = true
	}
	perm := make([]Op, 0, len(AllOps))
	trans := make([]Op, 0, len(AllOps))
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, transient := field, false
		if rest, ok := strings.CutSuffix(field, ":transient"); ok {
			name, transient = rest, true
		}
		op := Op(name)
		if !known[op] {
			return nil, fmt.Errorf("cas: unknown failpoint %q", name)
		}
		if transient {
			trans = append(trans, op)
		} else {
			perm = append(perm, op)
		}
	}
	if len(perm)+len(trans) == 0 {
		return nil, fmt.Errorf("cas: empty fault specification")
	}
	injs := make(multiInjector, 0, 2)
	if len(perm) > 0 {
		injs = append(injs, FailOps(fmt.Errorf("injected fault"), perm...))
	}
	if len(trans) > 0 {
		injs = append(injs, FailOps(MarkTransient(fmt.Errorf("injected transient fault")), trans...))
	}
	return injs, nil
}

// multiInjector consults injectors in order; the first error wins.
type multiInjector []Injector

func (m multiInjector) Fail(op Op) error {
	for _, inj := range m {
		if err := inj.Fail(op); err != nil {
			return err
		}
	}
	return nil
}
