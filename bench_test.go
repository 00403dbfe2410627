// Benchmark harness: one benchmark per evaluation artifact (see
// EXPERIMENTS.md for the experiment index). The paper's evaluation is
// qualitative (figures 1-2 and the §6 discussion); §6 "future work (3)" is
// performance testing, which these benches carry out on the simulated
// substrate:
//
//   - BenchmarkSyscallUnfiltered / BenchmarkSyscallIntercepted (E8): the
//     per-syscall overhead matrix across emulation modes. Expected shape:
//     none < seccomp ≪ fakeroot(hooked) < proot; seccomp's cost is flat
//     across filtered and unfiltered calls, ptrace taxes *everything*.
//
//   - BenchmarkBuildMatrix (E8/E15): end-to-end Dockerfile builds (the
//     Fig. 1a and Fig. 2 workloads) under every emulation mode.
//
//   - BenchmarkFilterGenerate / BenchmarkFilterEvaluate (E4 + DESIGN.md
//     ablation 2): program generation cost and linear-vs-tree dispatch.
//
//   - BenchmarkDataMarshal: the seccomp_data serialisation on the
//     simulated hot path.
//
//   - BenchmarkLayerCommit: the builder's snapshot+diff+pack step.
//
//   - BenchmarkLayerCodec: the tar encoder and decoder on base layers,
//     package payloads and commit-sized diffs.
//
//   - BenchmarkInvocation: one whole cold or warm ch-image invocation,
//     set-up (world, store, seeded bases) included.
package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bpf"
	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/seccomp"
	"repro/internal/simos"
	"repro/internal/sysarch"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// reportVirtual attaches the cost-model metric: modeled nanoseconds per
// operation (see simos.CostModel). This is the E8 headline number; raw
// ns/op measures only the simulator's own speed.
func reportVirtual(b *testing.B, k *simos.Kernel) {
	b.Helper()
	b.ReportMetric(float64(k.VirtualNanos())/float64(b.N), "vns/op")
}

// contProc builds a Type III container process with a file to probe.
func contProc(b *testing.B) *simos.Proc {
	b.Helper()
	k := simos.NewKernel()
	p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
	img := vfs.New()
	rc := vfs.RootContext()
	img.MkdirAll(rc, "/data", 0o755, 1000, 1000)
	img.WriteFile(rc, "/data/f", []byte("x"), 0o644, 1000, 1000)
	img.ChownAll(1000, 1000)
	if err := container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img}); err != nil {
		b.Fatal(err)
	}
	return p
}

func withSeccomp(b *testing.B, p *simos.Proc) {
	b.Helper()
	p.Prctl(simos.PrSetNoNewPrivs, 1)
	if e := p.SeccompInstall(core.MustNewFilter(core.Config{})); e != errno.OK {
		b.Fatal(e)
	}
}

// E8a: an UNFILTERED syscall (stat) under each regime — the tax every
// syscall pays.
func BenchmarkSyscallUnfiltered(b *testing.B) {
	b.Run("none", func(b *testing.B) {
		p := contProc(b)
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Stat("/data/f")
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("seccomp", func(b *testing.B) {
		p := contProc(b)
		withSeccomp(b, p)
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Stat("/data/f")
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("fakeroot-preload", func(b *testing.B) {
		p := contProc(b)
		fr := baseline.NewFakeroot()
		p.AddPreload(fr.Hook())
		c := &simos.CLib{P: p, Hooks: p.Preloads()}
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Stat("/data/f") // hooked even for reads: consistency must be maintained
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("proot-ptrace", func(b *testing.B) {
		p := contProc(b)
		baseline.NewPRoot().Attach(p)
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Stat("/data/f")
		}
		reportVirtual(b, p.Kernel())
	})
}

// E8b: an INTERCEPTED syscall (chown) under each regime.
func BenchmarkSyscallIntercepted(b *testing.B) {
	b.Run("seccomp", func(b *testing.B) {
		p := contProc(b)
		withSeccomp(b, p)
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Chown("/data/f", 74, 74)
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("fakeroot-preload", func(b *testing.B) {
		p := contProc(b)
		fr := baseline.NewFakeroot()
		p.AddPreload(fr.Hook())
		c := &simos.CLib{P: p, Hooks: p.Preloads()}
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Chown("/data/f", 74, 74)
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("proot-ptrace", func(b *testing.B) {
		p := contProc(b)
		baseline.NewPRoot().Attach(p)
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Chown("/data/f", 74, 74)
		}
		reportVirtual(b, p.Kernel())
	})
	b.Run("usernotif", func(b *testing.B) {
		p := contProc(b)
		p.Prctl(simos.PrSetNoNewPrivs, 1)
		p.SetNotifier(simos.NotifierFunc(func(*simos.Proc, string, []uint64) errno.Errno {
			return errno.OK
		}))
		p.SeccompInstall(core.MustNewFilter(core.Config{IDConsistency: true}))
		p.Kernel().ResetVirtualTime()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Setresuid(100, 100, 100)
		}
		reportVirtual(b, p.Kernel())
	})
}

// buildOnce runs one Dockerfile build to completion, returning the modeled
// (virtual) nanoseconds the kernel charged.
func buildOnce(b *testing.B, distro, name, text string, mode build.ForceMode) float64 {
	b.Helper()
	world := pkgmgr.NewWorld()
	store := image.NewStore()
	img, err := world.BaseImage(distro, name)
	if err != nil {
		b.Fatal(err)
	}
	store.Put(img)
	wantErr := mode == build.ForceNone && distro == pkgmgr.DistroCentOS7
	res, err := build.BuildContext(context.Background(), text, build.Options{
		Tag: "bench", Force: mode, Store: store, World: world,
	})
	if (err != nil) != wantErr {
		b.Fatalf("build err=%v wantErr=%v", err, wantErr)
	}
	return float64(res.VirtualNanos)
}

// E15: the end-to-end build matrix — the Fig. 1a and Fig. 1b/2 workloads
// under each emulation mode.
func BenchmarkBuildMatrix(b *testing.B) {
	workloads := []struct {
		key, distro, image, text string
	}{
		{"apk-sl", pkgmgr.DistroAlpine, "alpine:3.19", "FROM alpine:3.19\nRUN apk add sl\n"},
		{"yum-openssh", pkgmgr.DistroCentOS7, "centos:7", "FROM centos:7\nRUN yum install -y openssh\n"},
	}
	modes := []build.ForceMode{build.ForceNone, build.ForceSeccomp, build.ForceFakeroot, build.ForceProot}
	for _, w := range workloads {
		for _, m := range modes {
			b.Run(w.key+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				var vns float64
				for i := 0; i < b.N; i++ {
					vns += buildOnce(b, w.distro, w.image, w.text, m)
				}
				b.ReportMetric(vns/float64(b.N), "vns/op")
			})
		}
	}
}

// E4: filter generation cost, per variant and dispatch strategy.
func BenchmarkFilterGenerate(b *testing.B) {
	cases := []struct {
		key string
		cfg core.Config
	}{
		{"charliecloud-linear", core.Config{}},
		{"charliecloud-tree", core.Config{Strategy: core.DispatchTree}},
		{"enroot", core.Config{Variant: core.VariantEnroot}},
		{"extended", core.Config{Variant: core.VariantExtended}},
		{"single-arch", core.Config{Arches: []*sysarch.Arch{sysarch.X8664}}},
	}
	for _, c := range cases {
		b.Run(c.key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Generate(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// DESIGN.md ablation 2: linear vs tree dispatch, measured at the VM level
// on the best case (first table entry), worst case (unfiltered syscall
// walks the whole ladder), and the arch-mismatch fast path.
func BenchmarkFilterEvaluate(b *testing.B) {
	for _, strat := range []core.Strategy{core.DispatchLinear, core.DispatchTree} {
		f := core.MustNewFilter(core.Config{Strategy: strat})
		cases := []struct {
			key string
			d   seccomp.Data
		}{
			{"intercepted", seccomp.Data{NR: 92, Arch: sysarch.AuditArchX8664}}, // chown
			{"unfiltered", seccomp.Data{NR: 1, Arch: sysarch.AuditArchX8664}},   // write
			{"foreign-arch", seccomp.Data{NR: 92, Arch: 0xdeadbeef}},            // unknown
		}
		for _, c := range cases {
			c := c
			b.Run(strat.String()+"/"+c.key, func(b *testing.B) {
				var vm bpf.VM
				data := c.d.MarshalAuto()
				prog := f.Program()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					vm.Run(prog, data)
				}
			})
		}
	}
}

// seccomp_data marshalling, the simulated per-syscall serialisation cost.
func BenchmarkDataMarshal(b *testing.B) {
	d := seccomp.Data{NR: 92, Arch: sysarch.AuditArchX8664, Args: [6]uint64{1, 2, 3, 4, 5, 6}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.MarshalAuto()
	}
}

// The builder's per-instruction commit on a realistic tree: each iteration
// mutates one file, then commits the delta as a packed layer. "full" is
// the reference pipeline (whole-tree snapshot + full diff, the pre-PR
// behaviour); "incremental" is the production pipeline (dirty-subtree walk
// via vfs generation tracking), which costs O(changes).
func BenchmarkLayerCommit(b *testing.B) {
	flatten := func(b *testing.B) *vfs.FS {
		b.Helper()
		world := pkgmgr.NewWorld()
		img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
		if err != nil {
			b.Fatal(err)
		}
		fs, err := img.Flatten()
		if err != nil {
			b.Fatal(err)
		}
		return fs
	}
	b.Run("full", func(b *testing.B) {
		fs := flatten(b)
		lower, err := tarutil.Snapshot(fs)
		if err != nil {
			b.Fatal(err)
		}
		rc := vfs.RootContext()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.WriteFile(rc, "/etc/changed", []byte(fmt.Sprintf("delta-%d", i)), 0o644, 0, 0)
			upper, err := tarutil.Snapshot(fs)
			if err != nil {
				b.Fatal(err)
			}
			diff := tarutil.Diff(lower, upper)
			if len(diff) == 0 {
				b.Fatal("empty diff")
			}
			if _, err := tarutil.Pack(diff); err != nil {
				b.Fatal(err)
			}
			lower = upper
		}
	})
	b.Run("incremental", func(b *testing.B) {
		fs := flatten(b)
		snap, err := tarutil.NewSnapshotter(fs)
		if err != nil {
			b.Fatal(err)
		}
		rc := vfs.RootContext()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.WriteFile(rc, "/etc/changed", []byte(fmt.Sprintf("delta-%d", i)), 0o644, 0, 0)
			diff, err := snap.Advance(fs)
			if err != nil {
				b.Fatal(err)
			}
			if len(diff) == 0 {
				b.Fatal("empty diff")
			}
			if _, err := tarutil.Pack(diff); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The tar codec on the traffic a build produces: packing and unpacking
// the alpine base layer (the FROM path), encoding and parsing an apk
// package (apk add), and packing and unpacking a commit-sized diff — a
// copied context file, a new directory and marker, and a whiteout.
func BenchmarkLayerCodec(b *testing.B) {
	world := pkgmgr.NewWorld()
	img, err := world.BaseImage(pkgmgr.DistroAlpine, "alpine:3.19")
	if err != nil {
		b.Fatal(err)
	}
	baseFS, err := img.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	base, err := tarutil.Snapshot(baseFS)
	if err != nil {
		b.Fatal(err)
	}
	commit := []tarutil.Entry{
		{Path: "/bench", Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}},
		{Path: "/bench/marker", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: []byte("5eed0f601de2\n")},
		{Path: "/srv", Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}},
		{Path: "/srv/app.txt", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: make([]byte, 1024)},
		{Path: "/tmp/.wh.build", Stat: vfs.Stat{Type: vfs.TypeRegular}},
	}
	pkg, ok := world.Alpine.Meta("sl")
	if !ok {
		b.Fatal("no sl package")
	}
	apk, err := pkgmgr.BuildAPK(pkg)
	if err != nil {
		b.Fatal(err)
	}
	pack := func(ents []tarutil.Entry) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tarutil.Pack(ents); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	unpack := func(ents []tarutil.Entry) func(b *testing.B) {
		return func(b *testing.B) {
			layer, err := tarutil.Pack(ents)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(layer)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tarutil.Unpack(vfs.New(), layer); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("base/pack", pack(base))
	b.Run("base/unpack", unpack(base))
	b.Run("apk/encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pkgmgr.BuildAPK(pkg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apk/parse", func(b *testing.B) {
		b.SetBytes(int64(len(apk)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pkgmgr.ParseAPK(apk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("commit/pack", pack(commit))
	b.Run("commit/unpack", unpack(commit))
}

// E9 rendered as a measurement: state kept per method after the yum
// workload. Reported via custom metrics rather than ns/op.
func BenchmarkStateFootprint(b *testing.B) {
	for _, mode := range []build.ForceMode{build.ForceSeccomp, build.ForceFakeroot, build.ForceProot} {
		b.Run(mode.String(), func(b *testing.B) {
			var records float64
			for i := 0; i < b.N; i++ {
				world := pkgmgr.NewWorld()
				store := image.NewStore()
				img, _ := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
				store.Put(img)
				res, err := build.BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\n",
					build.Options{Tag: "bench", Force: mode, Store: store, World: world})
				if err != nil {
					b.Fatal(err)
				}
				records = float64(res.FakerootRecords)
			}
			b.ReportMetric(records, "state-records")
		})
	}
}

// Build-cache ablation: warm-cache rebuilds skip the expensive RUNs.
func BenchmarkBuildCached(b *testing.B) {
	world := pkgmgr.NewWorld()
	store := image.NewStore()
	img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
	if err != nil {
		b.Fatal(err)
	}
	store.Put(img)
	cache := build.NewCache()
	text := "FROM centos:7\nRUN yum install -y openssh\n"
	opt := build.Options{Tag: "bench", Force: build.ForceSeccomp,
		Store: store, World: world, Cache: cache}
	if _, err := build.BuildContext(context.Background(), text, opt); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := build.BuildContext(context.Background(), text, opt)
		if err != nil || res.CacheHits == 0 {
			b.Fatalf("cached rebuild: hits=%d err=%v", res.CacheHits, err)
		}
	}
}

// Observability ablation (the instrumentation-overhead gate recorded in
// BENCH_obs.{txt,json}): the warm cached rebuild — the engine's hottest
// path — with the obs registry live versus obs.SetDisabled(true), the
// same fast-path no-op a deployment can flip to. docs/observability.md
// documents the acceptance ceiling: instrumented stays within 3% of
// disabled on this path.
func BenchmarkObsOverhead(b *testing.B) {
	warmRebuild := func(b *testing.B) {
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
		if err != nil {
			b.Fatal(err)
		}
		store.Put(img)
		cache := build.NewCache()
		text := "FROM centos:7\nRUN yum install -y openssh\n"
		opt := build.Options{Tag: "bench", Force: build.ForceSeccomp,
			Store: store, World: world, Cache: cache}
		if _, err := build.BuildContext(context.Background(), text, opt); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := build.BuildContext(context.Background(), text, opt)
			if err != nil || res.CacheHits == 0 {
				b.Fatalf("cached rebuild: hits=%d err=%v", res.CacheHits, err)
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) {
		obs.SetDisabled(false)
		warmRebuild(b)
	})
	b.Run("disabled", func(b *testing.B) {
		obs.SetDisabled(true)
		defer obs.SetDisabled(false)
		warmRebuild(b)
	})
}

// The parallel build farm (PR 3 headline): N identical yum builds run
// through build.Pool, every builder with its own kernel and VFS but all
// sharing one image.Store and one instruction Cache.
//
//   - cold: fresh store and cache each iteration. Single-flight means one
//     builder pays each RUN and each flatten; the other N−1 wait and
//     replay, so wall time grows far slower than N× the single build.
//   - warm: the cache is prewarmed once; every builder replays everything.
//
// The acceptance bar recorded in BENCH_parallel.json: cold/builders=16
// completes in well under 16× cold/builders=1.
func BenchmarkBuildParallel(b *testing.B) {
	const text = "FROM centos:7\nRUN yum install -y openssh\n"
	mkJobs := func(n int, s *image.Store, w *pkgmgr.World, c *build.Cache) []build.Job {
		jobs := make([]build.Job, n)
		for i := range jobs {
			jobs[i] = build.Job{
				Dockerfile: text,
				Options: build.Options{
					Tag: fmt.Sprintf("par:%d", i), Force: build.ForceSeccomp,
					Store: s, World: w, Cache: c,
				},
			}
		}
		return jobs
	}
	freshFixtures := func(b *testing.B) (*image.Store, *pkgmgr.World) {
		b.Helper()
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
		if err != nil {
			b.Fatal(err)
		}
		store.Put(img)
		return store, world
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cold/builders=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, world := freshFixtures(b)
				cache := build.NewCache()
				b.StartTimer()
				if _, err := (&build.Pool{Workers: n}).RunContext(context.Background(), mkJobs(n, store, world, cache)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("warm/builders=%d", n), func(b *testing.B) {
			store, world := freshFixtures(b)
			cache := build.NewCache()
			if _, err := (&build.Pool{Workers: 1}).RunContext(context.Background(), mkJobs(1, store, world, cache)); err != nil {
				b.Fatal(err) // warm the shared cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&build.Pool{Workers: n}).RunContext(context.Background(), mkJobs(n, store, world, cache)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Multi-stage builds (PR 4 headline): a builder-pattern Dockerfile — two
// independent build stages feeding a slim final stage via COPY --from —
// scheduled as a stage DAG on the pool.
//
//   - cold/stage-jobs=1: fresh store and cache, stages serialised.
//   - cold/stage-jobs=2: the two independent stages run concurrently; the
//     DAG schedule should beat the serial one by roughly the cheaper
//     stage's wall time.
//   - cold/skewed: a slow stage beside a chain of two fast ones (late
//     FROM fast), both feeding the final stage, at stage-jobs=2. late
//     can start once fast finishes, while slow still runs, so the build
//     costs about the slow stage plus the final one.
//   - warm: the shared cache is prewarmed; every stage replays.
//
// Recorded in BENCH_multistage.{txt,json} by make bench (uploaded from CI).
func BenchmarkBuildMultiStage(b *testing.B) {
	const text = `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver > /opt/solver

FROM alpine:3.19 AS assets
RUN apk add sl
RUN mkdir -p /srv && echo data > /srv/assets

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
COPY --from=assets /srv/assets /app/assets
`
	const skewed = `FROM centos:7 AS slow
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver > /opt/solver

FROM alpine:3.19 AS fast
RUN mkdir -p /srv && echo data > /srv/data

FROM fast AS late
RUN apk add sl
RUN echo late >> /srv/data

FROM alpine:3.19
COPY --from=slow /opt/solver /app/solver
COPY --from=late /srv/data /app/data
`
	freshFixtures := func(b *testing.B) (*image.Store, *pkgmgr.World) {
		b.Helper()
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		for _, d := range []struct{ distro, name string }{
			{pkgmgr.DistroCentOS7, "centos:7"},
			{pkgmgr.DistroAlpine, "alpine:3.19"},
		} {
			img, err := world.BaseImage(d.distro, d.name)
			if err != nil {
				b.Fatal(err)
			}
			store.Put(img)
		}
		return store, world
	}
	opt := func(s *image.Store, w *pkgmgr.World, c *build.Cache, jobs int) build.Options {
		return build.Options{
			Tag: "multi:1", Force: build.ForceSeccomp,
			Store: s, World: w, Cache: c, StageJobs: jobs,
		}
	}
	cold := func(text string, jobs, stages int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, world := freshFixtures(b)
				cache := build.NewCache()
				b.StartTimer()
				res, err := build.BuildContext(context.Background(), text, opt(store, world, cache, jobs))
				if err != nil || res.StagesBuilt != stages {
					b.Fatalf("stages=%d err=%v", res.StagesBuilt, err)
				}
			}
		}
	}
	for _, jobs := range []int{1, 2} {
		b.Run(fmt.Sprintf("cold/stage-jobs=%d", jobs), cold(text, jobs, 3))
	}
	b.Run("cold/skewed", cold(skewed, 2, 4))
	b.Run("warm", func(b *testing.B) {
		store, world := freshFixtures(b)
		cache := build.NewCache()
		if _, err := build.BuildContext(context.Background(), text, opt(store, world, cache, 2)); err != nil {
			b.Fatal(err) // warm the shared cache
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := build.BuildContext(context.Background(), text, opt(store, world, cache, 2))
			if err != nil || res.CacheHits == 0 {
				b.Fatalf("hits=%d err=%v", res.CacheHits, err)
			}
		}
	})
}

// The persistent cache (PR 5 headline): the same yum workload at three
// temperatures.
//
//   - cold-process: a fresh cas directory every iteration — the first
//     ever invocation: execute everything, persist everything.
//   - warm-from-disk: a prewarmed cas directory, but completely fresh
//     in-memory state every iteration (new world, store, instruction
//     cache) — a *second process*: every instruction replays from disk,
//     and the one base chain fills from its seeded layer.
//   - warm-in-memory: the PR 2 path — same store and cache objects
//     reused, the in-process upper bound.
//
// Each iteration spans what one ch-image invocation pays: cas open, store
// seeding, build (warm-in-memory skips the first two — that is its
// point). Recorded in BENCH_persistent.{txt,json} by make bench and
// uploaded from CI; the acceptance bar is warm-from-disk landing far
// under cold-process, approaching warm-in-memory.
func BenchmarkBuildPersistent(b *testing.B) {
	const text = "FROM centos:7\nRUN yum install -y openssh\n"
	invoke := func(b *testing.B, root string, wantExecuted int) {
		b.Helper()
		d, _, err := cas.Open(root)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		store.SetBacking(d)
		img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
		if err != nil {
			b.Fatal(err)
		}
		store.Put(img)
		res, err := build.BuildContext(context.Background(), text, build.Options{
			Tag: "bench", Force: build.ForceSeccomp,
			Store: store, World: world, Cache: build.NewPersistentCache(d),
		})
		if err != nil || res.Executed != wantExecuted {
			b.Fatalf("executed=%d err=%v, want executed=%d", res.Executed, err, wantExecuted)
		}
	}
	b.Run("cold-process", func(b *testing.B) {
		base := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invoke(b, fmt.Sprintf("%s/cas-%d", base, i), 1)
		}
	})
	b.Run("warm-from-disk", func(b *testing.B) {
		root := b.TempDir() + "/cas"
		invoke(b, root, 1) // one cold invocation prewarms the directory
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invoke(b, root, 0)
		}
	})
	b.Run("warm-in-memory", func(b *testing.B) {
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		img, err := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
		if err != nil {
			b.Fatal(err)
		}
		store.Put(img)
		cache := build.NewCache()
		opt := build.Options{Tag: "bench", Force: build.ForceSeccomp,
			Store: store, World: world, Cache: cache}
		if _, err := build.BuildContext(context.Background(), text, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := build.BuildContext(context.Background(), text, opt)
			if err != nil || res.Executed != 0 {
				b.Fatalf("executed=%d err=%v", res.Executed, err)
			}
		}
	})
}

// BenchmarkInvocation is one whole ch-image invocation as the repository
// benchmark's cold and warm workloads run it: a fresh package world and
// image store, the stock bases seeded, one seccomp build of a
// package-install Dockerfile. Everything but the build itself is fixed
// set-up, so this is where base seeding, the first FROM, package encoding
// and filter generation show against the emulated RUN work.
//
//   - cold: no cache directory, so every instruction executes;
//   - warm: each iteration opens a cas directory populated before the
//     timer starts, replays every instruction from it, and closes it.
func BenchmarkInvocation(b *testing.B) {
	const text = "FROM alpine:3.19\nRUN apk add sl\nCOPY app.txt /srv/app.txt\n" +
		"RUN mkdir -p /bench && echo 5eed > /bench/marker\nENV BENCH_TOKEN=5eed\nWORKDIR /srv\n"
	bctx := map[string][]byte{"app.txt": []byte(strings.Repeat("invocation context\n", 54))}
	invoke := func(b *testing.B, root string, wantExecuted int) {
		b.Helper()
		world := pkgmgr.NewWorld()
		store := image.NewStore()
		opt := build.Options{Tag: "bench", Force: build.ForceSeccomp, Store: store, World: world,
			Context: bctx, StageJobs: 1}
		if root != "" {
			d, _, err := cas.Open(root)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			store.SetBacking(d)
			opt.Cache = build.NewPersistentCache(d)
		}
		if err := world.SeedBases(store); err != nil {
			b.Fatal(err)
		}
		res, err := build.BuildContext(context.Background(), text, opt)
		if err != nil || res.Executed != wantExecuted {
			b.Fatalf("executed=%d err=%v, want executed=%d", res.Executed, err, wantExecuted)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			invoke(b, "", 3)
		}
	})
	b.Run("warm", func(b *testing.B) {
		root := b.TempDir() + "/cas"
		invoke(b, root, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invoke(b, root, 0)
		}
	})
}

// Filter-variant ablation over a passing workload: the full Charliecloud
// filter vs the extended one (the Enroot variant cannot build this
// workload at all — its failure is asserted in the build tests).
func BenchmarkBuildFilterVariants(b *testing.B) {
	variants := []struct {
		key string
		cfg core.Config
	}{
		{"charliecloud", core.Config{}},
		{"extended", core.Config{Variant: core.VariantExtended}},
		{"tree-dispatch", core.Config{Strategy: core.DispatchTree}},
		{"single-arch", core.Config{Arches: []*sysarch.Arch{sysarch.X8664}}},
	}
	for _, v := range variants {
		b.Run(v.key, func(b *testing.B) {
			b.ReportAllocs()
			var vns float64
			for i := 0; i < b.N; i++ {
				world := pkgmgr.NewWorld()
				store := image.NewStore()
				img, _ := world.BaseImage(pkgmgr.DistroCentOS7, "centos:7")
				store.Put(img)
				res, err := build.BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\n",
					build.Options{Tag: "bench", Force: build.ForceSeccomp,
						Store: store, World: world, FilterConfig: v.cfg})
				if err != nil {
					b.Fatal(err)
				}
				vns += float64(res.VirtualNanos)
			}
			b.ReportMetric(vns/float64(b.N), "vns/op")
		})
	}
}

// Registry round trip: push + pull a built image over loopback HTTP.
func BenchmarkRegistryPushPull(b *testing.B) {
	world := pkgmgr.NewWorld()
	img, err := world.BaseImage(pkgmgr.DistroAlpine, "alpine:3.19")
	if err != nil {
		b.Fatal(err)
	}
	reg := image.NewRegistry(image.NewStore())
	url, err := reg.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := image.Push(url, img); err != nil {
			b.Fatal(err)
		}
		if _, err := image.Pull(url, "alpine:3.19"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheOpen (the cost an open no longer pays): opening a large
// store is O(journal lines) — every line checksummed, every referenced
// blob stat-checked, no blob read — while `cache fsck` (an open then
// Dir.Fsck) is O(store bytes): every blob read back and re-hashed,
// across CPUs. The store is a synthetic 256-blob × 64 KiB one;
// BENCH_cas.{txt,json} record both sub-benchmarks run over run.
// Each open also touches one step so the benchmark can't pass with a
// handle that skipped loading the journal.
func BenchmarkCacheOpen(b *testing.B) {
	const (
		blobCount = 256
		blobSize  = 64 << 10
	)
	root := b.TempDir() + "/cas"
	d, _, err := cas.Open(root)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < blobCount; i++ {
		layer := make([]byte, blobSize)
		copy(layer, fmt.Sprintf("blob-%d", i))
		if err := d.PutStep(context.Background(), fmt.Sprintf("step-%d", i), layer, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	open := func(b *testing.B, fsck bool, wantChecked int) {
		b.Helper()
		d, rep, err := cas.Open(root)
		if err != nil {
			b.Fatal(err)
		}
		if fsck {
			if rep, err = d.Fsck(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		if rep.BlobsChecked != wantChecked {
			b.Fatalf("BlobsChecked=%d, want %d", rep.BlobsChecked, wantChecked)
		}
		if _, ok := d.Step("step-0"); !ok {
			b.Fatal("journal not loaded")
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(b, false, 0)
		}
	})
	b.Run("fsck", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(b, true, blobCount)
		}
	})
}
