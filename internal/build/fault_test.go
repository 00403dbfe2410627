package build

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// The fault-injection harness: seeded randomized builds against a cas
// store with faults at every failpoint, asserting the robustness
// invariants — every build either succeeds (possibly degraded) or fails
// with a clean error, and the store always reopens reporting no damage.

// soakViolation records one broken invariant: in the test log, and — when
// FAULT_SOAK_LOG names a file (the `make fault-smoke` artifact) —
// appended there for CI to upload.
func soakViolation(t *testing.T, logPath, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf(format, args...)
	t.Error("invariant violation: " + msg)
	if logPath == "" {
		return
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("soak log unavailable: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%s: %s\n", t.Name(), msg)
}

// soakDockerfile assembles a random but always-buildable Dockerfile:
// 1–4 cacheable steps drawn from a safe set, in random order, so runs
// warm each other's caches in unpredictable overlaps.
func soakDockerfile(rng *rand.Rand) string {
	steps := []string{
		"RUN echo a > /a",
		"RUN echo b > /b",
		"RUN echo c > /srv-c",
		"COPY f.txt /f.txt",
		"ENV SOAK=1",
		"WORKDIR /work",
	}
	var b strings.Builder
	b.WriteString("FROM alpine:3.19\n")
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		b.WriteString(steps[rng.Intn(len(steps))] + "\n")
	}
	return b.String()
}

// TestFaultSoak is the `make fault-smoke` soak. Defaults are sized for
// the ordinary test run; the Makefile target raises FAULT_SOAK_BUILDS to
// 200. FAULT_SOAK_SEED pins the randomness (deterministic per seed);
// FAULT_SOAK_LOG collects invariant violations for the CI artifact.
func TestFaultSoak(t *testing.T) {
	builds := 16
	if v := os.Getenv("FAULT_SOAK_BUILDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FAULT_SOAK_BUILDS=%q: %v", v, err)
		}
		builds = n
	}
	var seed int64 = 1
	if v := os.Getenv("FAULT_SOAK_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SOAK_SEED=%q: %v", v, err)
		}
		seed = n
	}
	logPath := os.Getenv("FAULT_SOAK_LOG")
	root := filepath.Join(t.TempDir(), "cas")
	rng := rand.New(rand.NewSource(seed))
	w := pkgmgr.NewWorld()

	// Faults at every cas failpoint. The per-op rate is high enough that
	// most builds hit several faults, low enough that retries and
	// degraded mode still let most builds complete.
	rates := map[cas.Op]float64{}
	for _, op := range cas.AllOps {
		rates[op] = 0.15
	}

	succeeded, degraded, failed := 0, 0, 0
	for i := 0; i < builds; i++ {
		d, rep, err := cas.Open(root)
		if err != nil {
			soakViolation(t, logPath, "build %d: store failed to reopen: %v", i, err)
			return
		}
		if rep.Quarantined() {
			soakViolation(t, logPath, "build %d: store reopened with damage: %+v", i, rep)
		}
		// Seed before attaching the faulty backing: the soak targets the
		// build's own persistence, and Build's failure modes should not
		// be conflated with a half-seeded base store.
		_, s := fixtures(t)
		s.SetBacking(d)
		d.SetFailpoints(cas.NewPlan(rng.Int63(), rates))
		opt := Options{
			Tag: fmt.Sprintf("soak:%d", i%3), Force: ForceSeccomp,
			Store: s, World: w, Cache: NewPersistentCache(d),
			Context: map[string][]byte{"f.txt": []byte("payload")},
		}
		res, err := BuildContext(context.Background(), soakDockerfile(rng), opt)
		switch {
		case err != nil:
			// A failed build is allowed — the invariant is that it fails
			// cleanly (returned here, no panic, no hang) and leaves the
			// store undamaged, asserted by the reopen below.
			failed++
		case res == nil:
			soakViolation(t, logPath, "build %d: nil Result without error", i)
		case res.Degraded:
			degraded++
		default:
			succeeded++
		}

		// Reopen and fsck with no injector: the store must report zero
		// damage no matter what the faults did.
		d.SetFailpoints(nil)
		d.Close()
		d2, rep2, err := openFsck(root)
		if err != nil {
			soakViolation(t, logPath, "build %d: post-build reopen failed: %v", i, err)
			return
		}
		if rep2.Quarantined() {
			soakViolation(t, logPath, "build %d: post-build reopen found damage: %+v", i, rep2)
		}
		d2.Close()
	}

	// A final fault-free build against the surviving store must succeed.
	d, rep, err := openFsck(root)
	if err != nil || rep.Quarantined() {
		soakViolation(t, logPath, "final reopen: err=%v rep=%+v", err, rep)
		return
	}
	defer d.Close()
	_, s := fixtures(t)
	s.SetBacking(d)
	res, err := BuildContext(context.Background(), "FROM alpine:3.19\nRUN echo a > /a\n", Options{
		Tag: "soak:final", Force: ForceSeccomp, Store: s, World: w,
		Cache: NewPersistentCache(d),
	})
	if err != nil {
		soakViolation(t, logPath, "final fault-free build failed: %v", err)
	} else if res.Degraded {
		soakViolation(t, logPath, "final fault-free build degraded: %v", res.DegradedErrs)
	}
	t.Logf("soak: %d builds (seed %d): %d clean, %d degraded, %d failed cleanly",
		builds, seed, succeeded, degraded, failed)
}

// Satellite: ENOSPC during blob write-through degrades the build instead
// of failing it — the image is correct and tagged, Result.Degraded is
// set, and the store reopens clean.
func TestENOSPCWriteThroughDegradesBuild(t *testing.T) {
	root := t.TempDir()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	w, s := fixtures(t) // seeded before the backing attaches
	s.SetBacking(d)
	d.SetFailpoints(cas.FailOps(fmt.Errorf("injected: %w", syscall.ENOSPC), cas.OpBlobWrite))

	res, err := BuildContext(context.Background(), echoDockerfile, Options{
		Tag: "e:1", Force: ForceSeccomp, Store: s, World: w,
		Cache: NewPersistentCache(d),
	})
	if err != nil {
		t.Fatalf("ENOSPC persistence must degrade, not fail: %v", err)
	}
	if !res.Degraded || len(res.DegradedErrs) == 0 {
		t.Fatalf("build not marked degraded: %+v", res)
	}
	if !errors.Is(errors.Join(res.DegradedErrs...), syscall.ENOSPC) {
		t.Fatalf("DegradedErrs should carry the ENOSPC: %v", res.DegradedErrs)
	}
	if _, ok := s.GetContext(context.Background(), "e:1"); !ok {
		t.Fatal("degraded build must still tag its image in memory")
	}

	d.SetFailpoints(nil)
	d.Close()
	d2, rep, err := openFsck(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rep.Quarantined() {
		t.Fatalf("ENOSPC faults damaged the store: %+v", rep)
	}
}

// Permanent write-through failures past the cap are counted, not stored:
// a Cache and a Store each facing 40 failed writes report the first 32
// plus one summary entry naming the 8 dropped.
func TestPersistFailuresCapped(t *testing.T) {
	const failures, kept = 40, 32
	ctx := context.Background()
	d, _, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.SetFailpoints(cas.FailOps(errors.New("injected: disk gone"), cas.OpBlobWrite, cas.OpJournalAppend))

	c := NewPersistentCache(d)
	s := image.NewStore()
	s.SetBacking(d)
	for i := 0; i < failures; i++ {
		key := fmt.Sprintf("step-%d", i)
		if _, hit := c.getOrBegin(ctx, key); hit {
			t.Fatalf("%s: unexpected hit", key)
		}
		c.complete(ctx, key, cacheEntry{layer: []byte(key)})
		data := []byte(fmt.Sprintf("layer %d", i))
		s.Put(&image.Image{
			Name:   fmt.Sprintf("cap:%d", i),
			Layers: []image.Layer{{Digest: image.Digest(data), Data: data}},
		})
	}
	for name, errs := range map[string][]error{"PersistErrs": c.PersistErrs(), "BackingErrs": s.BackingErrs()} {
		if len(errs) != kept+1 {
			t.Errorf("%s: %d entries, want %d failures + 1 summary", name, len(errs), kept)
			continue
		}
		for _, err := range errs[:kept] {
			if !strings.Contains(err.Error(), "injected: disk gone") {
				t.Errorf("%s: recorded %v, want the injected failure", name, err)
			}
		}
		want := fmt.Sprintf("%d further persistence failure(s) dropped", failures-kept)
		if got := errs[kept].Error(); !strings.Contains(got, want) {
			t.Errorf("%s: summary %q, want it to say %q", name, got, want)
		}
	}
}

// Satellite: a quarantined blob hit mid-replay re-executes the
// instruction once and heals the store — the warm build succeeds with
// exactly one re-execution, and the store reopens clean afterwards.
func TestQuarantinedBlobMidReplayHeals(t *testing.T) {
	root := t.TempDir()
	const text = "FROM alpine:3.19\nRUN echo a > /a\nRUN echo b > /b\n"

	// Cold build to populate the store.
	d1, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	w, s1 := fixtures(t)
	s1.SetBacking(d1)
	res, err := BuildContext(context.Background(), text, Options{
		Tag: "h:1", Force: ForceSeccomp, Store: s1, World: w,
		Cache: NewPersistentCache(d1),
	})
	if err != nil || res.Executed != 2 {
		t.Fatalf("cold build: executed=%d err=%v", res.Executed, err)
	}
	steps := d1.Steps()
	d1.Close()

	// Corrupt one recorded step's layer blob on disk.
	var victim string
	for _, st := range steps {
		if st.Layer != "" {
			victim = st.Layer
			break
		}
	}
	if victim == "" {
		t.Fatal("no persisted step layer to corrupt")
	}
	if err := os.WriteFile(blobFile(root, victim), []byte("rotted bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm build: the open reads no blob, so the corrupt blob surfaces
	// on first read, is quarantined, and the instruction re-executes —
	// one Executed, not a failed build.
	d2, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	_, s2 := fixtures(t)
	s2.SetBacking(d2)
	res, err = BuildContext(context.Background(), text, Options{
		Tag: "h:1", Force: ForceSeccomp, Store: s2, World: w,
		Cache: NewPersistentCache(d2),
	})
	if err != nil {
		t.Fatalf("warm build over quarantined blob must heal, got: %v", err)
	}
	if res.Executed != 1 {
		t.Fatalf("want exactly the corrupted step re-executed (1), got %d", res.Executed)
	}
	d2.Close()

	// Healed: a reopen and fsck find no damage and a second warm build
	// replays everything.
	d3, rep, err := openFsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined() {
		t.Fatalf("store still damaged after heal: %+v", rep)
	}
	_, s3 := fixtures(t)
	s3.SetBacking(d3)
	res, err = BuildContext(context.Background(), text, Options{
		Tag: "h:1", Force: ForceSeccomp, Store: s3, World: w,
		Cache: NewPersistentCache(d3),
	})
	if err != nil || res.Executed != 0 {
		t.Fatalf("post-heal warm build: executed=%d err=%v", res.Executed, err)
	}
	d3.Close()
}

// A corrupt layer already in memory is fatal, not silently re-executed:
// by the time the apply fails, the rootfs may hold a partial unpack, and
// re-executing on it would bake the damage into a fresh layer.
func TestCorruptInMemoryCacheLayerIsFatal(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	opt := Options{Tag: "c:1", Force: ForceSeccomp, Store: s, World: w, Cache: cache}
	if _, err := BuildContext(context.Background(), echoDockerfile, opt); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	poisoned := 0
	for k, e := range cache.entries {
		if len(e.layer) > 0 {
			e.layer = []byte("not a packed layer")
			cache.entries[k] = e
			poisoned++
		}
	}
	cache.mu.Unlock()
	if poisoned == 0 {
		t.Fatal("no layered entries to poison")
	}
	_, err := BuildContext(context.Background(), echoDockerfile, opt)
	if err == nil || !strings.Contains(err.Error(), "corrupt cache layer") {
		t.Fatalf("want fatal corrupt-cache-layer error, got %v", err)
	}
}
