package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/build"
	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/pkgmgr"
	"repro/internal/vfs"
)

// input is one generated build: a Dockerfile, its build context, the
// root-emulation mode it runs under, and what the benchmark knows about
// its result before any build runs.
type input struct {
	tag     string
	text    string
	force   build.ForceMode
	context map[string][]byte

	// cacheable counts the RUN/COPY instructions the build executes: a
	// cold build must execute exactly these, a warm one replay them all.
	cacheable int

	// files maps paths in the final image to the bytes the Dockerfile
	// writes there; the reference build is checked against them.
	files map[string]string

	// digest is the final image's layer-chain digest from the reference
	// build (see reference); every measured build must reproduce it.
	digest string
}

// template is one shape of Dockerfile. The seed fills in tokens and the
// context file; the shape — base image, packages, instruction count —
// is fixed, so every seed asks the engine for the same amount of work.
type template struct {
	name  string
	force build.ForceMode
	gen   func(tok, app string) (text string, cacheable int, files map[string]string)
}

// single is the common one-stage shape: install a package, copy a
// context file, write a marker, set metadata.
func single(base, install string) func(tok, app string) (string, int, map[string]string) {
	return func(tok, app string) (string, int, map[string]string) {
		text := fmt.Sprintf(`FROM %s
RUN %s
COPY app.txt /srv/app.txt
RUN mkdir -p /bench && echo %s > /bench/marker
ENV BENCH_TOKEN=%s
WORKDIR /srv
`, base, install, tok, tok)
		return text, 3, map[string]string{"/bench/marker": tok + "\n", "/srv/app.txt": app}
	}
}

// multiStage is the builder pattern: a centos build stage whose output
// is copied into a slim alpine stage.
func multiStage(tok, app string) (string, int, map[string]string) {
	text := fmt.Sprintf(`FROM centos:7 AS build
RUN yum install -y which
RUN mkdir -p /opt && echo %s > /opt/out

FROM alpine:3.19
RUN apk add sl
COPY --from=build /opt/out /app/out
COPY app.txt /app/app.txt
`, tok)
	return text, 5, map[string]string{"/app/out": tok + "\n", "/app/app.txt": app}
}

// coldUnique is the daemon workload's never-repeated build: the token
// sits in the first RUN, so no instruction chain matches the cache.
func coldUnique(tok, app string) (string, int, map[string]string) {
	text := fmt.Sprintf(`FROM alpine:3.19
RUN mkdir -p /bench && echo %s > /bench/marker
RUN apk add sl
COPY app.txt /srv/app.txt
`, tok)
	return text, 3, map[string]string{"/bench/marker": tok + "\n", "/srv/app.txt": app}
}

var (
	alpine = single("alpine:3.19", "apk add sl")
	centos = single("centos:7", "yum install -y openssh")
	debian = single("debian:12", "apt-get install -y curl")
)

// cliTemplates is the cold and warm input set: each distro's package
// manager and the multi-stage shape, under each root-emulation mode that
// can build them (none cannot: package managers need root emulation).
var cliTemplates = []template{
	{"alpine-seccomp", build.ForceSeccomp, alpine},
	{"centos-seccomp", build.ForceSeccomp, centos},
	{"debian-seccomp", build.ForceSeccomp, debian},
	{"multi-seccomp", build.ForceSeccomp, multiStage},
	{"alpine-fakeroot", build.ForceFakeroot, alpine},
	{"centos-fakeroot", build.ForceFakeroot, centos},
	{"debian-fakeroot", build.ForceFakeroot, debian},
	{"multi-fakeroot", build.ForceFakeroot, multiStage},
	{"alpine-proot", build.ForceProot, alpine},
	{"centos-proot", build.ForceProot, centos},
	{"debian-proot", build.ForceProot, debian},
	{"multi-proot", build.ForceProot, multiStage},
}

// daemonVariants are the requests the daemon workload repeats. The daemon
// builds under its default mode, seccomp.
var daemonVariants = []template{
	{"alpine", build.ForceSeccomp, alpine},
	{"centos", build.ForceSeccomp, centos},
	{"debian", build.ForceSeccomp, debian},
	{"multi", build.ForceSeccomp, multiStage},
}

// generator draws tokens and context files from the workload seed.
type generator struct {
	rng *rand.Rand
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed))}
}

func (g *generator) token() string {
	b := make([]byte, 6)
	g.rng.Read(b)
	return hex.EncodeToString(b)
}

// contextFile is the build context's app.txt: 1 KiB of seeded text.
func (g *generator) contextFile() []byte {
	b := make([]byte, 512)
	g.rng.Read(b)
	return []byte(hex.EncodeToString(b))
}

// make instantiates t with fresh seeded content.
func (g *generator) make(t template, tag string) *input {
	tok, app := g.token(), g.contextFile()
	text, cacheable, files := t.gen(tok, string(app))
	return &input{
		tag: tag, text: text, force: t.force,
		context:   map[string][]byte{"app.txt": app},
		cacheable: cacheable, files: files,
	}
}

// set instantiates every template once, in a seeded order.
func (g *generator) set(prefix string, ts []template) []*input {
	out := make([]*input, len(ts))
	for i, j := range g.rng.Perm(len(ts)) {
		out[i] = g.make(ts[j], fmt.Sprintf("%s-%s:%d", prefix, ts[j].name, i))
	}
	return out
}

// seedBases puts the three base images into store, the way ch-image and
// ch-imaged seed theirs.
func seedBases(world *pkgmgr.World, store *image.Store) error {
	for _, b := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := world.BaseImage(b.distro, b.name)
		if err != nil {
			return err
		}
		store.Put(img)
	}
	return nil
}

// reference is the correctness oracle for in: it builds in on the plain
// path — in-memory store, no instruction cache, no cache directory, no
// daemon — checks the files the Dockerfile writes, and records the
// image's chain digest, which every measured build must then reproduce.
func reference(ctx context.Context, in *input) error {
	world := pkgmgr.NewWorld()
	store := image.NewStore()
	if err := seedBases(world, store); err != nil {
		return err
	}
	res, err := build.BuildContext(ctx, in.text, build.Options{
		Tag: in.tag, Force: in.force, Store: store, World: world,
		Context: in.context, StageJobs: 1,
	})
	if err != nil {
		return fmt.Errorf("reference build %s: %w", in.tag, err)
	}
	if res.Executed != in.cacheable {
		return fmt.Errorf("reference build %s: executed %d instructions, want %d", in.tag, res.Executed, in.cacheable)
	}
	fs, err := res.Image.Flatten()
	if err != nil {
		return fmt.Errorf("reference build %s: flatten: %w", in.tag, err)
	}
	for path, want := range in.files {
		got, e := fs.ReadFile(vfs.RootContext(), path)
		if e != errno.OK {
			return fmt.Errorf("reference build %s: read %s: %v", in.tag, path, e)
		}
		if string(got) != want {
			return fmt.Errorf("reference build %s: %s holds %q, want %q", in.tag, path, got, want)
		}
	}
	in.digest = image.ChainDigest(res.Image.Layers)
	return nil
}

// checkImage compares a measured build's image with the reference.
func checkImage(in *input, img *image.Image) error {
	if img == nil {
		return fmt.Errorf("%s: no image", in.tag)
	}
	if got := image.ChainDigest(img.Layers); got != in.digest {
		return fmt.Errorf("%s: chain digest %s, reference %s", in.tag, got, in.digest)
	}
	return nil
}
