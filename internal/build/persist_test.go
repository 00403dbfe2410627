package build

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// persistFixtures simulates one process's view of a shared --cache-dir:
// a fresh world, a fresh store backed by the cas directory, and a fresh
// persistent instruction cache rehydrated from the directory's journal.
func persistFixtures(t *testing.T, root string) (*pkgmgr.World, *image.Store, *Cache, *cas.Dir) {
	t.Helper()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	w := pkgmgr.NewWorld()
	s := image.NewStore()
	s.SetBacking(d)
	return w, s, NewPersistentCache(d), d
}

// Base images must serialise to identical bytes in every process — the
// root of every cross-invocation cache key.
func TestBaseImageDeterministic(t *testing.T) {
	for _, db := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		a, err := pkgmgr.NewWorld().BaseImage(db.distro, db.name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pkgmgr.NewWorld().BaseImage(db.distro, db.name)
		if err != nil {
			t.Fatal(err)
		}
		if image.ChainDigest(a.Layers) != image.ChainDigest(b.Layers) {
			t.Errorf("%s: base image bytes differ between worlds", db.name)
		}
	}
}

// The acceptance path: two separate invocations (completely fresh worlds,
// stores and caches) against one cache dir. The second runs fully warm —
// every instruction a cache hit, nothing executed, and no flatten fill:
// the FROM resolves its base from the world and hands the store its
// entries.
func TestWarmAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	const text = "FROM centos:7\nRUN yum install -y openssh\nRUN mkdir -p /opt && echo art > /opt/bin\n"

	w1, s1, c1, _ := persistFixtures(t, root)
	res1, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Executed != 2 || res1.CacheHits != 0 {
		t.Fatalf("cold: executed=%d hits=%d", res1.Executed, res1.CacheHits)
	}
	if err := errors.Join(c1.PersistErrs()...); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res2, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 || res2.CacheHits != 2 {
		t.Fatalf("warm: executed=%d hits=%d, want 0/2", res2.Executed, res2.CacheHits)
	}
	if fills := s2.FlattenFills(); fills != 0 {
		t.Fatalf("warm process paid %d flatten fills, want 0", fills)
	}
	// Same result bytes both ways.
	if image.ChainDigest(res1.Image.Layers) != image.ChainDigest(res2.Image.Layers) {
		t.Fatal("warm rebuild produced different layers")
	}
}

// Editing the Dockerfile between invocations invalidates from the edit
// point: the prefix stays warm, the suffix re-executes.
func TestEditInvalidatesSuffixAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	w1, s1, c1, _ := persistFixtures(t, root)
	if _, err := BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\nRUN echo one > /v1\n",
		Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1}); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res, err := BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\nRUN echo two > /v2\n",
		Options{Tag: "app:2", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 || res.Executed != 1 {
		t.Fatalf("hits=%d executed=%d, want 1/1 (warm prefix, re-run suffix)", res.CacheHits, res.Executed)
	}
}

// A multi-stage build — stage scheduling, COPY --from, chain-digest keys —
// replays fully warm in a second process.
func TestMultiStageWarmAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	const text = `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver > /opt/solver

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
`
	w1, s1, c1, _ := persistFixtures(t, root)
	res1, err := BuildContext(context.Background(), text, Options{Tag: "slim:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1, StageJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Executed == 0 {
		t.Fatal("cold multi-stage executed nothing")
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res2, err := BuildContext(context.Background(), text, Options{Tag: "slim:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2, StageJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 || res2.CacheHits != res1.Executed {
		t.Fatalf("warm: executed=%d hits=%d (cold executed %d)", res2.Executed, res2.CacheHits, res1.Executed)
	}
	if res2.StagesBuilt != 2 {
		t.Fatalf("stages=%d", res2.StagesBuilt)
	}
	if image.ChainDigest(res1.Image.Layers) != image.ChainDigest(res2.Image.Layers) {
		t.Fatal("warm rebuild produced different layers")
	}
}

// The corruption acceptance criterion. A blob truncated between
// invocations costs at most the steps that read it, and the warm build in
// fresh process state still produces the golden chain digest, whichever
// blob was hit:
//
//   - step-layer: a layer the warm build replays. The read quarantines it
//     and its step re-executes, which re-puts the layer.
//   - base-layer: a stock base's layer. The FROM re-puts it every
//     invocation, but the put stat-hits the damaged file, and the build
//     takes the base's entries without reading it: the build runs fully
//     warm, Fsck quarantines the blob, and the next invocation's re-put
//     heals it.
//   - unread-blob: a layer only another Dockerfile's step holds. Nothing
//     reads it; Fsck quarantines it and drops that step and its tag.
//
// Open reads no blob, so none of the three is found at open. After each,
// an invocation's Fsck finds no damage.
func TestCorruptBlobReExecutesOnlyAffectedSteps(t *testing.T) {
	var shape string
	for _, sh := range goldenShapes {
		if sh.name == "centos" {
			shape = sh.text
		}
	}
	const other = "FROM alpine:3.19\nRUN echo unread > /unread\n"
	opts := func(w *pkgmgr.World, s *image.Store, c *Cache, tag string) Options {
		return Options{
			Tag: tag, Force: ForceSeccomp, Store: s, World: w, Cache: c, StageJobs: 1,
			Context: map[string][]byte{"app.txt": []byte(strings.Repeat("golden app.txt context file\n", 36))},
		}
	}
	// stepLayer finds the step layer whose bytes contain marker.
	stepLayer := func(t *testing.T, d *cas.Dir, marker string) string {
		t.Helper()
		for _, st := range d.Steps() {
			if st.Layer == "" {
				continue
			}
			data, err := d.Blob(context.Background(), st.Layer)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), marker) {
				return st.Layer
			}
		}
		t.Fatalf("no step layer holds %q", marker)
		return ""
	}
	for _, tc := range []struct {
		name   string
		victim func(t *testing.T, d *cas.Dir) string
		// What the warm build executes and reads back as corrupt, and
		// what the next Fsck quarantines and drops.
		executed, readQuarantined, fsckQuarantined, fsckDropped int
	}{
		{
			name:     "step-layer",
			victim:   func(t *testing.T, d *cas.Dir) string { return stepLayer(t, d, "bench/marker") },
			executed: 1, readQuarantined: 1,
		},
		{
			name: "base-layer",
			victim: func(t *testing.T, d *cas.Dir) string {
				tg, ok := d.Tag("centos:7")
				if !ok {
					t.Fatal("centos:7 not persisted")
				}
				return tg.Layers[0]
			},
			// The centos:7 tag and app:1, whose chain starts with it.
			fsckQuarantined: 1, fsckDropped: 2,
		},
		{
			name:   "unread-blob",
			victim: func(t *testing.T, d *cas.Dir) string { return stepLayer(t, d, "unread") },
			// The other Dockerfile's step and its tag.
			fsckQuarantined: 1, fsckDropped: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			w1, s1, c1, d1 := persistFixtures(t, root)
			res1, err := BuildContext(context.Background(), shape, opts(w1, s1, c1, "app:1"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := BuildContext(context.Background(), other, opts(w1, s1, c1, "other:1")); err != nil {
				t.Fatal(err)
			}
			p := blobFile(root, tc.victim(t, d1))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			d1.Close()

			w2, s2, c2, d2 := persistFixtures(t, root)
			if rep := d2.Report(); rep.Quarantined() {
				t.Fatalf("open found damage without reading a blob: %+v", rep)
			}
			res2, err := BuildContext(context.Background(), shape, opts(w2, s2, c2, "app:1"))
			if err != nil {
				t.Fatal(err)
			}
			if got := image.ChainDigest(res2.Image.Layers); got != goldenChains["centos-seccomp"] {
				t.Fatalf("warm chain digest %s, golden %s", got, goldenChains["centos-seccomp"])
			}
			if res2.Executed != tc.executed || res2.CacheHits != res1.Executed-tc.executed {
				t.Fatalf("warm: executed=%d hits=%d, want %d re-executed and the other %d warm",
					res2.Executed, res2.CacheHits, tc.executed, res1.Executed-tc.executed)
			}
			if got := d2.Report().BlobsQuarantined; got != tc.readQuarantined {
				t.Fatalf("quarantined at read: %d, want %d", got, tc.readQuarantined)
			}
			d2.Close()

			d3, rep, err := openFsck(root)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BlobsQuarantined != tc.fsckQuarantined || rep.RecordsDropped != tc.fsckDropped {
				t.Fatalf("fsck after the warm build: %+v, want %d quarantined and %d dropped",
					rep, tc.fsckQuarantined, tc.fsckDropped)
			}
			d3.Close()

			// The store healed: the next invocation (its FROM re-puts a
			// quarantined base blob) runs fully warm, and its Fsck finds
			// nothing.
			w4, s4, c4, d4 := persistFixtures(t, root)
			res4, err := BuildContext(context.Background(), shape, opts(w4, s4, c4, "app:1"))
			if err != nil {
				t.Fatal(err)
			}
			if got := image.ChainDigest(res4.Image.Layers); got != goldenChains["centos-seccomp"] {
				t.Fatalf("healed chain digest %s, golden %s", got, goldenChains["centos-seccomp"])
			}
			if res4.Executed != 0 || res4.CacheHits != res1.Executed {
				t.Fatalf("healed store: executed=%d hits=%d", res4.Executed, res4.CacheHits)
			}
			if rep, err := d4.Fsck(context.Background()); err != nil || rep.Quarantined() {
				t.Fatalf("fsck of the healed store: %+v, %v", rep, err)
			}
		})
	}
}

// openFsck opens the store at root and fscks it: the full check a reopen
// after damage or injected faults is held to.
func openFsck(root string) (*cas.Dir, cas.Report, error) {
	d, _, err := cas.Open(root)
	if err != nil {
		return nil, cas.Report{}, err
	}
	rep, err := d.Fsck(context.Background())
	if err != nil {
		return nil, rep, errors.Join(err, d.Close())
	}
	return d, rep, nil
}

// blobFile is the path of a blob in a cas directory.
func blobFile(root, digest string) string {
	hexpart := strings.TrimPrefix(digest, "sha256:")
	return filepath.Join(root, "blobs", "sha256", hexpart[:2], hexpart[2:])
}

// A torn journal tail (crash mid-append) costs at most the torn record:
// the next invocation quarantines the fragment and replays the rest.
func TestTornJournalWarmRecovery(t *testing.T) {
	root := t.TempDir()
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	w1, s1, c1, _ := persistFixtures(t, root)
	if _, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1}); err != nil {
		t.Fatal(err)
	}
	j := filepath.Join(root, "journal")
	f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `0000 {"t":"step","key":"torn`)
	f.Close()

	w2, s2, c2, d2 := persistFixtures(t, root)
	if rep := d2.Report(); rep.JournalQuarantined != 1 {
		t.Fatalf("torn tail not quarantined: %+v", rep)
	}
	res, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("executed=%d hits=%d after torn-tail recovery", res.Executed, res.CacheHits)
	}
}

// A pool of builders sharing one persistent cache must be race-clean and
// leave a store the next process can fully warm from. Run with -race.
func TestPoolWithPersistentCache(t *testing.T) {
	root := t.TempDir()
	const text = "FROM centos:7\nRUN yum install -y openssh\n"
	w1, s1, c1, _ := persistFixtures(t, root)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Name:       fmt.Sprintf("job%d", i),
			Dockerfile: text,
			Options: Options{
				Tag: fmt.Sprintf("pool:%d", i), Force: ForceSeccomp,
				Store: s1, World: w1, Cache: c1,
			},
		}
	}
	if _, err := (&Pool{Workers: 4}).RunContext(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(c1.PersistErrs()...); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res, err := BuildContext(context.Background(), text, Options{Tag: "pool:9", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("after pooled process: executed=%d hits=%d", res.Executed, res.CacheHits)
	}
}

// Open reads no blob back, and a healthy store still warms through it:
// blob verification happens at read, never at open.
func TestOpenWarmsWithoutBlobPass(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	run := func() *Result {
		w, s, c, d := persistFixtures(t, root)
		if n := d.Report().BlobsChecked; n != 0 {
			t.Fatalf("open read back %d blob(s)", n)
		}
		res, err := BuildContext(context.Background(), text, Options{
			Tag: "app:1", Force: ForceSeccomp, Store: s, World: w, Cache: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); res.Executed != 1 {
		t.Fatalf("cold: executed=%d", res.Executed)
	}
	if res := run(); res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("warm: executed=%d hits=%d", res.Executed, res.CacheHits)
	}
}

// A size-budgeted GC after a build, the Store.GCBacking call behind
// ch-image --cache-max-bytes: tag pins survive an impossible budget, and
// a fresh process still loads the tagged image. Stage b's RUN layer is an
// unpinned step layer (the /y keeps it distinct from the COPY layer), so
// the build leaves the GC something to evict.
func TestOptionsCacheMaxBytesBudgetsAfterBuild(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	ctx := context.Background()
	w, s, c, _ := persistFixtures(t, root)
	const text = "FROM alpine:3.19 AS b\nRUN echo x > /x && echo y > /y\nFROM alpine:3.19\nRUN apk add sl\nCOPY --from=b /x /x\n"
	if _, err := BuildContext(ctx, text, Options{
		Tag: "app:1", Force: ForceSeccomp, Store: s, World: w, Cache: c,
	}); err != nil {
		t.Fatal(err)
	}
	s.GCBacking(ctx, cas.Budget{MaxBytes: 1})
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatalf("budgeted GC recorded an error: %v", err)
	}

	// The impossible budget evicted every unpinned entry but not the
	// tag's layers: a fresh process still loads app:1 whole.
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tg, ok := d.Tag("app:1")
	if !ok {
		t.Fatal("tag evicted by budgeted GC")
	}
	for _, l := range tg.Layers {
		if _, err := d.Blob(ctx, l); err != nil {
			t.Fatalf("pinned layer %s evicted: %v", l, err)
		}
	}
	// Steps may survive only when evicting them would free nothing: their
	// layer is one of the tag's pinned layers (the final stage's RUN and
	// COPY layers are the image's top layers here) or they recorded no
	// layer at all.
	pinned := map[string]bool{}
	for _, l := range tg.Layers {
		pinned[l] = true
	}
	for _, st := range d.Steps() {
		if st.Layer != "" && !pinned[st.Layer] {
			t.Fatalf("step %q with unpinned layer survived an impossible budget", st.Key)
		}
	}
}
