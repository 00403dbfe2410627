// hpc-app is the paper's motivating workload end to end: building a
// scientific application image on (simulated) HPC infrastructure where
// everything must be fully unprivileged. A multi-instruction Dockerfile —
// base distro, package installation (the part that needs root emulation),
// source COPY, in-container "compilation", environment setup — is built
// with --force=seccomp inside a Type III container, rebuilt to show the
// instruction cache, and pushed to an in-process OCI registry for the
// deployment side to pull.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/build"
	"repro/internal/image"
	"repro/internal/pkgmgr"
	"repro/internal/vfs"
)

const dockerfile = `FROM centos:7
# The privileged part: rpm chowns; only root emulation makes this pass.
RUN yum install -y openssh fipscheck
ARG VERSION=1.4
ENV APP_VERSION=$VERSION
WORKDIR /opt/simapp
COPY solver.c .
# "Compile" and install the application.
RUN echo compiled-$APP_VERSION > /opt/simapp/solver && chmod 755 /opt/simapp/solver
RUN mkdir -p /var/run/simapp && touch /var/run/simapp/ready
CMD ["/opt/simapp/solver"]
`

func main() {
	world := pkgmgr.NewWorld()
	store := image.NewStore()
	cache := build.NewCache()
	buildCtx := map[string][]byte{
		"solver.c": []byte("/* 3-D stencil solver */\nint main(void){return 0;}\n"),
	}

	fmt.Println("=== first build (cold cache)")
	res, err := build.BuildContext(context.Background(), dockerfile, build.Options{
		Tag: "simapp:1.4", Force: build.ForceSeccomp, Store: store,
		World: world, Context: buildCtx, Output: os.Stdout, Cache: cache,
		BuildArgs: map[string]string{"VERSION": "1.4"},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("    layers=%d faked-syscalls=%d cache-hits=%d\n\n",
		len(res.Image.Layers), res.Counters.Faked, res.CacheHits)

	fmt.Println("=== rebuild (warm cache: every RUN/COPY replays)")
	res2, err := build.BuildContext(context.Background(), dockerfile, build.Options{
		Tag: "simapp:1.4", Force: build.ForceSeccomp, Store: store,
		World: world, Context: buildCtx, Output: os.Stdout, Cache: cache,
		BuildArgs: map[string]string{"VERSION": "1.4"},
	})
	if err != nil {
		fatal(err)
	}
	hits, misses := cache.Stats()
	fmt.Printf("    cache-hits=%d (cache totals: %d hits / %d misses)\n\n",
		res2.CacheHits, hits, misses)

	// Verify the image contents.
	fs, err := res2.Image.Flatten()
	if err != nil {
		fatal(err)
	}
	rc := vfs.RootContext()
	bin, e := fs.ReadFile(rc, "/opt/simapp/solver")
	if !e.Ok() {
		fatal(fmt.Errorf("solver missing: %v", e))
	}
	fmt.Printf("image check: /opt/simapp/solver = %q, CMD = %v\n",
		string(bin[:len(bin)-1]), res2.Image.Config.Cmd)

	// Push to the site registry; the compute nodes pull from here.
	reg := image.NewRegistry(image.NewStore())
	url, err := reg.Start()
	if err != nil {
		fatal(err)
	}
	defer reg.Close()
	if err := image.Push(url, res2.Image); err != nil {
		fatal(err)
	}
	pulled, err := image.Pull(url, "simapp:1.4")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pushed and re-pulled simapp:1.4 from %s (%d layers)\n", url, len(pulled.Layers))
	fmt.Println("\nThe entire pipeline — package install, compile, push — ran with no")
	fmt.Println("privilege anywhere: a Type III container plus 216 BPF instructions.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpc-app:", err)
	os.Exit(1)
}
