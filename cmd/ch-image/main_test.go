package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// CLI-level smoke tests: the three figures through cmdBuild with real
// files on disk.

func writeContext(t *testing.T, dockerfile string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Dockerfile"), []byte(dockerfile), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCLIFig1a(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "win", "--force", "none", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIFig1bFails(t *testing.T) {
	dir := writeContext(t, "FROM centos:7\nRUN yum install -y openssh\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "win", "--force", "none", dir}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestCLIFig2Succeeds(t *testing.T) {
	dir := writeContext(t, "FROM centos:7\nRUN yum install -y openssh\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "win", "--force", "seccomp", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIRebuildWithCache(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nCOPY hello.txt /hello\nRUN apk add sl\n",
		map[string]string{"hello.txt": "hi\n"})
	if code := cmdBuild(context.Background(), []string{"-t", "win", "-rebuild", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIMultiStage(t *testing.T) {
	dir := writeContext(t, `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo artifact > /opt/out
FROM alpine:3.19
COPY --from=build /opt/out /app/out
`, nil)
	if code := cmdBuild(context.Background(), []string{"-t", "slim:1", "--jobs", "2", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIMultiStageForwardReferenceRejected(t *testing.T) {
	dir := writeContext(t, "FROM a\nCOPY --from=later /x /y\nFROM b AS later\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "x", dir}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestCLIMultiTagPool(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "a:1,b:1,c:1", "--jobs", "3", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIMultiTagPoolFailure(t *testing.T) {
	dir := writeContext(t, "FROM centos:7\nRUN yum install -y openssh\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "a:1,b:1", "--jobs", "2", "--force", "none", dir}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestCLIEmptyTagElementRejected(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "a:1,", dir}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIMultiTagStraceRejected(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "a:1,b:1", "-strace", "all", dir}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIMissingTag(t *testing.T) {
	if code := cmdBuild(context.Background(), []string{}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIBadForceMode(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN true\n", nil)
	if code := cmdBuild(context.Background(), []string{"-t", "x", "--force", "magic", dir}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIList(t *testing.T) {
	if code := cmdList(); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIJobsBelowOneRejected(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	for _, jobs := range []string{"0", "-3"} {
		if code := cmdBuild(context.Background(), []string{"-t", "x", "--jobs", jobs, dir}); code != 2 {
			t.Fatalf("--jobs %s: exit %d, want 2", jobs, code)
		}
	}
}

func TestCLICacheDirOnFileRejected(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := cmdBuild(context.Background(), []string{"-t", "x", "--cache-dir", notADir, ctx}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", notADir, "ls"}); code != 2 {
		t.Fatalf("cache ls on file: exit %d, want 2", code)
	}
}

// cmdBuild invocations with completely fresh state against one
// --cache-dir: the CLI-level warm path. A second run executes nothing,
// under the default full-verify open and under --cache-verify lazy.
func TestCLIPersistentCacheWarmSecondRun(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdBuild(context.Background(), []string{"-t", "w:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("cold: exit %d", code)
	}
	for _, verify := range [][]string{nil, {"--cache-verify", "lazy"}} {
		args := append([]string{"-t", "w:1", "--cache-dir", cache}, verify...)
		var code int
		out := capture(t, &os.Stdout, func() {
			code = cmdBuild(context.Background(), append(args, ctx))
		})
		if code != 0 {
			t.Fatalf("warm %v: exit %d", verify, code)
		}
		if !strings.Contains(out, "\ninstructions executed: 0 ") {
			t.Fatalf("warm %v executed instructions:\n%s", verify, out)
		}
	}
}

func TestCLITargetStage(t *testing.T) {
	dir := writeContext(t, `FROM centos:7 AS build
RUN yum install -y openssh
FROM alpine:3.19
COPY --from=build /etc/centos-release /rel
`, nil)
	if code := cmdBuild(context.Background(), []string{"-t", "b:1", "--target", "build", dir}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if code := cmdBuild(context.Background(), []string{"-t", "b:1", "--target", "missing", dir}); code != 1 {
		t.Fatalf("unknown target: exit %d, want 1", code)
	}
}

func TestCLICacheSubcommands(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdBuild(context.Background(), []string{"-t", "a:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("build: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "ls"}); code != 0 {
		t.Fatalf("ls: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "gc", "a:1"}); code != 0 {
		t.Fatalf("gc: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "reset"}); code != 0 {
		t.Fatalf("reset: exit %d", code)
	}
	// gc on a directory that has never existed is a no-op, exit 0.
	if code := cmdCache(context.Background(), []string{"--cache-dir", filepath.Join(t.TempDir(), "fresh"), "gc"}); code != 0 {
		t.Fatalf("gc on missing dir: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"ls"}); code != 2 {
		t.Fatalf("missing --cache-dir: exit %d, want 2", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache}); code != 2 {
		t.Fatalf("missing subcommand: exit %d, want 2", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "defrag"}); code != 2 {
		t.Fatalf("unknown subcommand: exit %d, want 2", code)
	}
}

// A bad flag must come back as exit 2 through the normal return path —
// the flag set uses ContinueOnError, so the test process itself surviving
// this call is part of the assertion (ExitOnError would have killed it).
func TestCLICacheBadFlagReturnsTwo(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "--bogus", "ls"}); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "gc", "--max-bytes", "not-a-number"}); code != 2 {
		t.Fatalf("bad flag value: exit %d, want 2", code)
	}
}

// Flags may follow the subcommand: `cache gc --max-bytes N --cache-dir D`
// is the natural spelling and must parse.
func TestCLICacheFlagsAfterSubcommand(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdBuild(context.Background(), []string{"-t", "i:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("build: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"ls", "--cache-dir", cache}); code != 0 {
		t.Fatalf("ls with trailing flags: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"gc", "--max-bytes", "1048576", "--cache-dir", cache}); code != 0 {
		t.Fatalf("gc with trailing flags: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "gc", "--max-bytes", "1048576"}); code != 0 {
		t.Fatalf("gc with flags either side: exit %d", code)
	}
}

// `cache gc TAG...` validates every tag before deleting any: one typo
// must not half-delete the list and abort without collecting.
func TestCLICacheGCUnknownTagIsAtomic(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdBuild(context.Background(), []string{"-t", "keep:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("build: exit %d", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "gc", "keep:1", "nosuch:1"}); code != 1 {
		t.Fatalf("gc with unknown tag: exit %d, want 1", code)
	}
	// The known tag must still be there: nothing was deleted.
	d, err := openCacheDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := d.Tag("keep:1"); !ok {
		t.Fatal("gc deleted keep:1 before failing on the unknown tag")
	}
}

// The build-side knobs: --cache-verify=lazy opens without the fsck pass,
// --cache-max-bytes runs a budgeted gc after the build. Both exercised
// end to end; bad values are exit 2.
func TestCLIBuildCacheVerifyAndBudget(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	if code := cmdBuild(context.Background(), []string{"-t", "v:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("cold build: exit %d", code)
	}
	if code := cmdBuild(context.Background(), []string{"-t", "v:1", "--cache-dir", cache,
		"--cache-verify", "lazy", "--cache-max-bytes", "1", ctx}); code != 0 {
		t.Fatalf("lazy+budget build: exit %d", code)
	}
	if code := cmdBuild(context.Background(), []string{"-t", "v:1", "--cache-dir", cache, "--cache-verify", "paranoid", ctx}); code != 2 {
		t.Fatalf("bad --cache-verify: exit %d, want 2", code)
	}
	if code := cmdCache(context.Background(), []string{"--cache-dir", cache, "--cache-verify", "paranoid", "ls"}); code != 2 {
		t.Fatalf("cache with bad --cache-verify: exit %d, want 2", code)
	}
	// The budgeted gc must not have evicted what the tag pins: the next
	// warm build still succeeds.
	if code := cmdBuild(context.Background(), []string{"-t", "v:1", "--cache-dir", cache, ctx}); code != 0 {
		t.Fatalf("post-budget build: exit %d", code)
	}
}

// capture runs fn with *f (os.Stdout or os.Stderr) redirected to a pipe
// and returns what fn wrote there.
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		w.Close()
		*f = old
	}()
	fn()
	w.Close()
	*f = old
	return <-done
}

// S3, the degraded-build contract: when persistence fails but the build
// succeeds, ch-image prints one "cache degraded" warning on stderr and
// still exits 0.
func TestCLIDegradedBuildWarnsAndExitsZero(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	t.Setenv("CH_IMAGE_CAS_FAULTS", "blob-write")
	var code int
	stderr := capture(t, &os.Stderr, func() {
		code = cmdBuild(context.Background(), []string{"-t", "d:1", "--cache-dir", cache, ctx})
	})
	if code != 0 {
		t.Fatalf("degraded build must exit 0, got %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "warning: cache degraded") {
		t.Fatalf("missing degraded warning on stderr: %q", stderr)
	}
}

// A bad CH_IMAGE_CAS_FAULTS spec is a usage error, not a silent no-op.
func TestCLIBadFaultSpec(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\n", nil)
	cache := filepath.Join(t.TempDir(), "cas")
	t.Setenv("CH_IMAGE_CAS_FAULTS", "no-such-op")
	if code := cmdBuild(context.Background(), []string{"-t", "d:1", "--cache-dir", cache, ctx}); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// --timeout: an overrunning build fails with a deadline error (exit 1),
// it does not hang.
func TestCLIBuildTimeout(t *testing.T) {
	ctx := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	var code int
	stderr := capture(t, &os.Stderr, func() {
		code = cmdBuild(context.Background(), []string{"-t", "t:1", "--timeout", "1ns", ctx})
	})
	if code != 1 {
		t.Fatalf("timed-out build: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "deadline") {
		t.Fatalf("stderr should mention the deadline: %q", stderr)
	}
}

// S1: a cancelled context (SIGINT/SIGTERM through signal.NotifyContext)
// stops the build and exits 130.
func TestCLIInterruptExits130(t *testing.T) {
	dir := writeContext(t, "FROM alpine:3.19\nRUN apk add sl\n", nil)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	var code int
	stderr := capture(t, &os.Stderr, func() {
		code = cmdBuild(cctx, []string{"-t", "i:1", dir})
	})
	if code != 130 {
		t.Fatalf("interrupted build: exit %d, want 130", code)
	}
	if !strings.Contains(stderr, "interrupted") {
		t.Fatalf("stderr should say interrupted: %q", stderr)
	}
}
