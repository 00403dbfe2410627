package build

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/vfs"
)

// The pool contract: N builds sharing one Cache and one Store, bounded
// workers, submission-order results, collect-all failures, and the
// single-flight accounting invariants (every shared step executes once
// across the pool; everything else replays).

// echoDockerfile has exactly two cacheable steps (the RUNs).
const echoDockerfile = "FROM alpine:3.19\nRUN echo a > /a\nRUN echo b > /b\n"

const echoSteps = 2

// sameJobs builds n identical jobs with distinct tags sharing w/s/cache.
func sameJobs(t *testing.T, n int) ([]Job, *Cache) {
	t.Helper()
	w, s := fixtures(t)
	cache := NewCache()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Dockerfile: echoDockerfile,
			Options: Options{
				Tag: fmt.Sprintf("pooled:%d", i), Force: ForceSeccomp,
				Store: s, World: w, Cache: cache,
			},
		}
	}
	return jobs, cache
}

func TestPoolResultsInSubmissionOrder(t *testing.T) {
	jobs, _ := sameJobs(t, 4)
	results, err := (&Pool{Workers: 2}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results: %d, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if want := fmt.Sprintf("pooled:%d", i); r.Name != want {
			t.Errorf("result %d name = %q, want %q", i, r.Name, want)
		}
		if r.Err != nil || r.Result == nil {
			t.Errorf("result %d: err=%v result=%v", i, r.Err, r.Result)
		}
		if r.Transcript == "" || !strings.Contains(r.Transcript, "grown in") {
			t.Errorf("result %d transcript not captured: %q", i, r.Transcript)
		}
	}
}

// Satellite: N pooled builds of one Dockerfile report exactly N−1
// fully-cached runs, and the shared cache's counters agree with the
// per-build ones. Workers=1 serialises the jobs, so the partition of work
// is deterministic: job 0 executes every step, the rest replay.
func TestPoolSameDockerfileFullyCachedRuns(t *testing.T) {
	const n = 5
	jobs, cache := sameJobs(t, n)
	results, err := (&Pool{Workers: 1}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	fullyCached := 0
	sumHits := 0
	for i, r := range results {
		sumHits += r.Result.CacheHits
		switch r.Result.CacheHits {
		case 0:
			if i != 0 {
				t.Errorf("job %d ran cold; only job 0 should", i)
			}
		case echoSteps:
			fullyCached++
		default:
			t.Errorf("job %d: CacheHits = %d, want 0 or %d", i, r.Result.CacheHits, echoSteps)
		}
	}
	if fullyCached != n-1 {
		t.Errorf("fully-cached runs = %d, want %d", fullyCached, n-1)
	}
	hits, misses := cache.Stats()
	if hits != sumHits {
		t.Errorf("cache hits %d != sum of Result.CacheHits %d", hits, sumHits)
	}
	if misses != echoSteps {
		t.Errorf("cache misses = %d, want %d (each step fills once)", misses, echoSteps)
	}
}

// The same invariants must hold with real concurrency: whoever wins each
// step's fill, each step executes exactly once pool-wide and every other
// builder replays it (directly or after waiting out the in-flight fill).
func TestPoolConcurrentAccountingInvariants(t *testing.T) {
	const n = 8
	jobs, cache := sameJobs(t, n)
	// Re-Put the bases as Clones, which carry no FromFS tree, into a fresh
	// store: the shared base chain must really fill, once, under the race.
	store := image.NewStore()
	for _, tag := range jobs[0].Options.Store.Tags() {
		img, _ := jobs[0].Options.Store.GetContext(context.Background(), tag)
		store.Put(img.Clone(tag))
	}
	for i := range jobs {
		jobs[i].Options.Store = store
	}
	results, err := (&Pool{Workers: 4}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	sumHits := 0
	for _, r := range results {
		sumHits += r.Result.CacheHits
	}
	if want := (n - 1) * echoSteps; sumHits != want {
		t.Errorf("sum of CacheHits = %d, want %d", sumHits, want)
	}
	hits, misses := cache.Stats()
	if hits != sumHits {
		t.Errorf("cache hits %d != sum of Result.CacheHits %d", hits, sumHits)
	}
	if misses != echoSteps {
		t.Errorf("cache misses = %d, want %d", misses, echoSteps)
	}
	// All builders flattened the same base chain: one fill, N−1 shares.
	if fills := store.FlattenFills(); fills != 1 {
		t.Errorf("flatten fills = %d, want 1 (single-flight)", fills)
	}
	// Identical inputs ⇒ identical images, layer for layer.
	first := results[0].Result.Image
	for i, r := range results[1:] {
		img := r.Result.Image
		if len(img.Layers) != len(first.Layers) {
			t.Fatalf("job %d: %d layers, want %d", i+1, len(img.Layers), len(first.Layers))
		}
		for j := range img.Layers {
			if img.Layers[j].Digest != first.Layers[j].Digest {
				t.Errorf("job %d layer %d digest drifted: %s != %s",
					i+1, j, img.Layers[j].Digest, first.Layers[j].Digest)
			}
		}
	}
	// Every tag landed in the shared store.
	for i := range jobs {
		if _, ok := store.GetContext(context.Background(), fmt.Sprintf("pooled:%d", i)); !ok {
			t.Errorf("pooled:%d missing from store", i)
		}
	}
}

// Heterogeneous jobs: different distros and force modes in one pool, all
// sharing the store. Results must match what serial builds produce.
func TestPoolHeterogeneousJobs(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	jobs := []Job{
		{Dockerfile: "FROM alpine:3.19\nRUN apk add sl\n",
			Options: Options{Tag: "apk:1", Force: ForceNone, Store: s, World: w, Cache: cache}},
		{Dockerfile: "FROM centos:7\nRUN yum install -y openssh\n",
			Options: Options{Tag: "yum:1", Force: ForceSeccomp, Store: s, World: w, Cache: cache}},
		{Dockerfile: "FROM debian:12\nRUN apt-get install -y curl\n",
			Options: Options{Tag: "apt:1", Force: ForceSeccomp, Store: s, World: w, Cache: cache}},
	}
	results, err := (&Pool{Workers: 3}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rc := vfs.RootContext()
	for i, path := range []string{"/usr/bin/sl", "/usr/libexec/openssh/ssh-keysign", "/usr/bin/curl"} {
		fs, ferr := results[i].Result.Image.Flatten()
		if ferr != nil {
			t.Fatal(ferr)
		}
		if !fs.Exists(rc, path) {
			t.Errorf("job %d (%s): %s missing from built image", i, results[i].Name, path)
		}
	}
}

// Collect-all mode: failures are per-job; the rest of the batch completes.
func TestPoolCollectAllErrors(t *testing.T) {
	w, s := fixtures(t)
	jobs := []Job{
		{Dockerfile: "FROM centos:7\nRUN yum install -y openssh\n",
			Options: Options{Tag: "fails:1", Force: ForceNone, Store: s, World: w}},
		{Dockerfile: "FROM alpine:3.19\nRUN apk add sl\n",
			Options: Options{Tag: "ok:1", Force: ForceNone, Store: s, World: w}},
	}
	results, err := (&Pool{Workers: 1}).RunContext(context.Background(), jobs)
	if err == nil {
		t.Fatal("pool error is nil; the yum/none job must fail")
	}
	if results[0].Err == nil || results[0].Result == nil {
		t.Errorf("failing job: err=%v result=%v (result must carry counters)", results[0].Err, results[0].Result)
	}
	if results[1].Err != nil {
		t.Errorf("collect-all must still run the healthy job: %v", results[1].Err)
	}
	if _, ok := s.GetContext(context.Background(), "ok:1"); !ok {
		t.Error("healthy job's image missing from store")
	}
}

// Failing builds sharing a cache must not deadlock waiters: an abandoned
// in-flight fill wakes the blocked builders, one of which retries the
// step (and fails the same way). All N jobs fail; nothing hangs.
func TestPoolSharedCacheFailureReleasesWaiters(t *testing.T) {
	const n = 6
	w, s := fixtures(t)
	cache := NewCache()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Dockerfile: "FROM centos:7\nRUN yum install -y openssh\n",
			Options: Options{
				Tag: fmt.Sprintf("doomed:%d", i), Force: ForceNone,
				Store: s, World: w, Cache: cache,
			},
		}
	}
	results, err := (&Pool{Workers: 4}).RunContext(context.Background(), jobs)
	if err == nil {
		t.Fatal("every job should have failed")
	}
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("job %s unexpectedly succeeded", r.Name)
		}
	}
	// The failing step never completes, so it caches nothing and every
	// builder pays its own miss.
	hits, misses := cache.Stats()
	if hits != 0 {
		t.Errorf("cache hits = %d, want 0 (the step never succeeds)", hits)
	}
	if misses != n {
		t.Errorf("cache misses = %d, want %d (one abandoned fill per builder)", misses, n)
	}
}

// A corrupt persisted step discovered under concurrency: the open reads
// no blob back, so the first builder to reach the step leads
// its lazy load, finds the blob corrupt and fails the flight. Every
// waiter wakes, one of them fills the step by executing it, and the rest
// replay its result — one execution pool-wide, identical images.
func TestPoolLazyFlightFailureRefillsOnce(t *testing.T) {
	const n = 8
	const text = "FROM alpine:3.19\nRUN echo a > /a\nRUN echo lazy > /lazy-flight\n"
	root := t.TempDir()
	w1, s1, c1, d1 := persistFixtures(t, root)
	ref, err := BuildContext(context.Background(), text, Options{Tag: "ref:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	wantChain := image.ChainDigest(ref.Image.Layers)

	// Flip the bytes of the second RUN's layer blob in place: the file
	// stays present, so only verify-on-read can find the damage.
	var victim string
	for _, st := range d1.Steps() {
		if st.Layer == "" {
			continue
		}
		data, err := d1.Blob(context.Background(), st.Layer)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "lazy-flight") {
			victim = st.Layer
		}
	}
	if victim == "" {
		t.Fatal("second RUN's layer not found in journal")
	}
	p := blobFile(root, victim)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rep, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rep.BlobsQuarantined != 0 {
		t.Fatalf("open quarantined eagerly: %+v", rep)
	}
	// Slow blob reads hold each lazy load open long enough for the other
	// builders to pile up behind it as waiters.
	d2.SetFailpoints(slowReads(20 * time.Millisecond))
	w2, s2 := fixtures(t)
	cache := NewPersistentCache(d2)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Dockerfile: text, Options: Options{
			Tag: fmt.Sprintf("lazy:%d", i), Force: ForceSeccomp, Store: s2, World: w2, Cache: cache,
		}}
	}
	results, err := (&Pool{Workers: 4}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Errorf("cache misses = %d, want 1 (only the corrupt step re-executes, once)", misses)
	}
	for _, r := range results {
		if got := image.ChainDigest(r.Result.Image.Layers); got != wantChain {
			t.Errorf("%s: chain digest %s, want the reference %s", r.Name, got, wantChain)
		}
	}
	if got := d2.Report().BlobsQuarantined; got != 1 {
		t.Errorf("blobs quarantined = %d, want 1", got)
	}
}

// slowReads is a cas injector that fails nothing and delays every blob
// read by its duration.
type slowReads time.Duration

func (d slowReads) Fail(op cas.Op) error {
	if op == cas.OpBlobRead {
		time.Sleep(time.Duration(d))
	}
	return nil
}

// Satellite: cached layers are immune to callers scribbling on the
// result. Mutating the step layers of a Result.Image between builds must
// not change what later replays produce, and the store's blobs must keep
// the bytes their digests name. (Layer 0 is the base image's layer,
// shared by the Image.Clone immutability convention, so the corruption
// here targets the layers the instruction cache recorded.)
func TestPoolCacheLayerAliasingDefended(t *testing.T) {
	jobs, _ := sameJobs(t, 1)
	opt := jobs[0].Options
	first, _ := mustBuild(t, echoDockerfile, opt)
	if len(first.Image.Layers) != 1+echoSteps {
		t.Fatalf("layers = %d, want base + %d steps", len(first.Image.Layers), echoSteps)
	}
	wantDigests := make([]string, len(first.Image.Layers))
	for i, l := range first.Image.Layers {
		wantDigests[i] = l.Digest
	}
	// Corrupt every byte of the step layers the caller can reach.
	for _, l := range first.Image.Layers[1:] {
		for i := range l.Data {
			l.Data[i] ^= 0xff
		}
	}
	second, _ := mustBuild(t, echoDockerfile, opt)
	if second.CacheHits != echoSteps {
		t.Fatalf("replay CacheHits = %d, want %d", second.CacheHits, echoSteps)
	}
	for i, l := range second.Image.Layers {
		if l.Digest != wantDigests[i] {
			t.Errorf("layer %d replayed corrupted bytes: %s != %s", i, l.Digest, wantDigests[i])
		}
		if image.Digest(l.Data) != l.Digest {
			t.Errorf("layer %d data does not match its digest", i)
		}
	}
	// The store's content-addressed blobs were copied in by Put and are
	// unaffected by the scribbling.
	for _, d := range wantDigests[1:] {
		blob, ok := opt.Store.Blob(d)
		if !ok {
			t.Fatalf("blob %s missing", d)
		}
		if image.Digest(blob) != d {
			t.Errorf("store blob %s corrupted by caller mutation", d)
		}
	}
	// And the replayed image's content is intact.
	fs, err := second.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	rc := vfs.RootContext()
	if b, e := fs.ReadFile(rc, "/a"); !e.Ok() || string(b) != "a\n" {
		t.Errorf("/a = %q %v", b, e)
	}
	// A FROM of the scribbled tag flattens from the store's write-once
	// blobs, so even the in-place corruption above cannot reach builds
	// that derive from the tag.
	derived, _ := mustBuild(t, "FROM pooled:0\nRUN echo c > /c\n", opt)
	dfs, err := opt.Store.Flatten(context.Background(), derived.Image)
	if err != nil {
		t.Fatal(err)
	}
	if b, e := dfs.ReadFile(rc, "/a"); !e.Ok() || string(b) != "a\n" {
		t.Errorf("derived build saw scribbled base: /a = %q %v", b, e)
	}
}

func TestPoolZeroJobsAndDefaults(t *testing.T) {
	results, err := (&Pool{}).RunContext(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty pool: %v %v", results, err)
	}
	// Workers <= 0 defaults to one per job.
	jobs, _ := sameJobs(t, 2)
	if _, err := (&Pool{Workers: -3}).RunContext(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}
