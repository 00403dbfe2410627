package build

import (
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/pkgmgr"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// Cache correctness: identical rebuilds replay every cacheable step,
// mid-Dockerfile edits invalidate the suffix, and the options that change
// build behaviour participate in the key.

const cachedDockerfile = `FROM centos:7
RUN yum install -y openssh
COPY conf.txt /etc/app.conf
RUN echo tuned > /etc/tuned
`

func cacheOpts(t *testing.T) Options {
	t.Helper()
	w, s := fixtures(t)
	return Options{
		World: w, Store: s, Force: ForceSeccomp, Cache: NewCache(),
		Context: map[string][]byte{"conf.txt": []byte("threads=8\n")},
		Tag:     "cached:1",
	}
}

func TestCacheSecondBuildAllHits(t *testing.T) {
	opt := cacheOpts(t)
	first, _ := mustBuild(t, cachedDockerfile, opt)
	if first.CacheHits != 0 {
		t.Fatalf("cold build reported %d hits", first.CacheHits)
	}
	second, _ := mustBuild(t, cachedDockerfile, opt)
	// Two RUNs + one COPY are the cacheable steps.
	if second.CacheHits != 3 {
		t.Fatalf("warm build CacheHits = %d, want 3", second.CacheHits)
	}
	// Replaying skips the emulated installs entirely: the only faked
	// syscall left is the filter's kexec_load self-test, and the modeled
	// time collapses.
	if second.Counters.Faked > 1 {
		t.Errorf("warm build faked %d syscalls; cached RUNs must not execute", second.Counters.Faked)
	}
	if second.VirtualNanos >= first.VirtualNanos {
		t.Errorf("warm build modeled time %d >= cold %d", second.VirtualNanos, first.VirtualNanos)
	}
	if len(second.Image.Layers) != len(first.Image.Layers) {
		t.Errorf("layer counts differ: %d != %d", len(second.Image.Layers), len(first.Image.Layers))
	}
	// Replayed layers are the recorded bytes: digests match exactly.
	for i := range first.Image.Layers {
		if second.Image.Layers[i].Digest != first.Image.Layers[i].Digest {
			t.Errorf("layer %d digest drifted on replay: %s != %s",
				i, second.Image.Layers[i].Digest, first.Image.Layers[i].Digest)
		}
	}
	// The replayed image carries identical content.
	fs, _ := second.Image.Flatten()
	rc := vfs.RootContext()
	if b, e := fs.ReadFile(rc, "/etc/app.conf"); !e.Ok() || string(b) != "threads=8\n" {
		t.Errorf("/etc/app.conf = %q %v", b, e)
	}
	if !fs.Exists(rc, "/usr/libexec/openssh/ssh-keysign") {
		t.Error("cached RUN layer lost the installed payload")
	}
}

func TestCacheMidEditInvalidatesSuffix(t *testing.T) {
	opt := cacheOpts(t)
	mustBuild(t, cachedDockerfile, opt)

	// Change the COPY'd content: the first RUN stays warm, the COPY and
	// the following RUN must re-execute.
	opt.Context = map[string][]byte{"conf.txt": []byte("threads=64\n")}
	res, _ := mustBuild(t, cachedDockerfile, opt)
	if res.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1 (only the leading RUN)", res.CacheHits)
	}
	fs, _ := res.Image.Flatten()
	if b, _ := fs.ReadFile(vfs.RootContext(), "/etc/app.conf"); string(b) != "threads=64\n" {
		t.Errorf("stale COPY content: %q", b)
	}

	// Editing the text of the second RUN has the same suffix effect.
	edited := strings.Replace(cachedDockerfile, "echo tuned", "echo retuned", 1)
	res2, _ := mustBuild(t, edited, opt)
	if res2.CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2 (RUN+COPY warm, edited RUN cold)", res2.CacheHits)
	}
}

func TestCacheKeyIncludesAptWorkaround(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	text := "FROM debian:12\nRUN apt-get install -y curl\n"
	opt := Options{World: w, Store: s, Force: ForceSeccomp, Cache: cache, Tag: "apt:1"}
	mustBuild(t, text, opt)

	// Disabling the workaround must not replay the rewritten RUN: the
	// build re-executes (and correctly fails at apt's verification).
	opt.DisableAptWorkaround = true
	res, _, _ := mustFail(t, text, opt)
	if res.CacheHits != 0 {
		t.Fatalf("DisableAptWorkaround must change the cache key, got %d hits", res.CacheHits)
	}
}

func TestCacheKeyIncludesForceMode(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	text := "FROM centos:7\nRUN yum install -y openssh\n"
	mustBuild(t, text, Options{World: w, Store: s, Force: ForceSeccomp, Cache: cache, Tag: "a"})
	// A different emulation mode must not reuse seccomp's layers — under
	// ForceNone this build must still fail.
	res, _, _ := mustFail(t, text, Options{World: w, Store: s, Force: ForceNone, Cache: cache, Tag: "b"})
	if res.CacheHits != 0 {
		t.Fatalf("force mode must participate in the key, got %d hits", res.CacheHits)
	}
}

func TestCacheStats(t *testing.T) {
	opt := cacheOpts(t)
	mustBuild(t, cachedDockerfile, opt)
	hits, misses := opt.Cache.Stats()
	if hits != 0 || misses != 3 {
		t.Fatalf("cold stats = %d/%d, want 0/3", hits, misses)
	}
	mustBuild(t, cachedDockerfile, opt)
	hits, misses = opt.Cache.Stats()
	if hits != 3 || misses != 3 {
		t.Fatalf("warm stats = %d/%d, want 3/3", hits, misses)
	}
	if opt.Cache.Len() != 3 {
		t.Fatalf("Len = %d, want 3", opt.Cache.Len())
	}
}

func TestCacheSharedAcrossStores(t *testing.T) {
	// The same Dockerfile against a fresh world/store still hits: keys
	// are content-addressed, not store-identity-addressed.
	cache := NewCache()
	w1, s1 := fixtures(t)
	mustBuild(t, cachedDockerfile, Options{
		World: w1, Store: s1, Force: ForceSeccomp, Cache: cache,
		Context: map[string][]byte{"conf.txt": []byte("threads=8\n")}, Tag: "x"})
	w2, s2 := fixtures(t)
	res, _ := mustBuild(t, cachedDockerfile, Options{
		World: w2, Store: s2, Force: ForceSeccomp, Cache: cache,
		Context: map[string][]byte{"conf.txt": []byte("threads=8\n")}, Tag: "y"})
	if res.CacheHits != 3 {
		t.Fatalf("CacheHits = %d, want 3", res.CacheHits)
	}
}

func TestCacheKeyIncludesBaseImageContent(t *testing.T) {
	// Retagging different bytes under the same name must not replay
	// stale layers: the seed folds in the base's layer digests.
	opt := cacheOpts(t)
	mustBuild(t, cachedDockerfile, opt)

	w2, s2 := fixtures(t)
	img, _ := w2.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
	fs, _ := img.Flatten()
	fs.WriteFile(vfs.RootContext(), "/etc/os-release", []byte("CentOS 7.9.2010\n"), 0o644, 0, 0)
	entries, err := tarutil.Snapshot(fs)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := image.FromEntries("centos:7", entries, img.Config)
	if err != nil {
		t.Fatal(err)
	}
	s2.Put(changed)

	opt.World, opt.Store = w2, s2
	res, _ := mustBuild(t, cachedDockerfile, opt)
	if res.CacheHits != 0 {
		t.Fatalf("changed base image must invalidate the cache, got %d hits", res.CacheHits)
	}
}

func TestCacheKeyIncludesShell(t *testing.T) {
	// Changing SHELL must invalidate later shell-form RUNs even when
	// their text is identical.
	w, s := fixtures(t)
	cache := NewCache()
	mustBuild(t, "FROM alpine:3.19\nRUN echo made > /p\n",
		Options{World: w, Store: s, Cache: cache, Tag: "a"})
	res, _ := mustBuild(t, "FROM alpine:3.19\nSHELL [\"/bin/sh\", \"-c\"]\nRUN echo made > /p\n",
		Options{World: w, Store: s, Cache: cache, Tag: "b"})
	if res.CacheHits != 0 {
		t.Fatalf("SHELL must participate in the key, got %d hits", res.CacheHits)
	}
}
