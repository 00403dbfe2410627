package build

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// The determinism oracle: every path through the builder — cold, warm in
// memory, warm from disk in fresh state, partial hits, pooled and the
// stage scheduler at any width — must produce the cold build's result:
// the same chain digest, the same per-layer digests and the same image
// config, or, for a build that fails, the same error text. A difference
// is a cache-key, replay or working-directory bug.

// oracleCase is one Dockerfile of the oracle corpus.
type oracleCase struct {
	name  string
	text  string
	force ForceMode
}

// oracleOutcome is what a build produced, in comparable form.
type oracleOutcome struct {
	Err    string
	Chain  string
	Layers []string
	Config string
}

func (o oracleOutcome) String() string {
	if o.Err != "" {
		return "error: " + o.Err
	}
	return fmt.Sprintf("chain %s, layers %v, config %s", o.Chain, o.Layers, o.Config)
}

// outcomeOf renders a build's result for comparison.
func outcomeOf(t *testing.T, res *Result, err error) oracleOutcome {
	t.Helper()
	if err != nil {
		return oracleOutcome{Err: err.Error()}
	}
	cfg, merr := json.Marshal(res.Image.Config)
	if merr != nil {
		t.Fatal(merr)
	}
	o := oracleOutcome{Chain: image.ChainDigest(res.Image.Layers), Config: string(cfg)}
	for _, l := range res.Image.Layers {
		o.Layers = append(o.Layers, l.Digest)
	}
	return o
}

// oracleContext is the build context every corpus case reads.
var oracleContext = map[string][]byte{
	"app.txt": []byte(strings.Repeat("golden app.txt context file\n", 36)),
}

// oracleCorpus is the golden shapes under every root-emulation mode, plus
// the working-directory cases a deferred tree must resolve exactly as the
// container does.
func oracleCorpus() []oracleCase {
	var out []oracleCase
	modes := []ForceMode{ForceSeccomp, ForceFakeroot, ForceProot}
	for _, shape := range goldenShapes {
		for _, m := range modes {
			out = append(out, oracleCase{name: shape.name + "-" + m.String(), text: shape.text, force: m})
		}
	}
	extra := []struct{ name, text string }{
		{"workdir-copy-created", `FROM alpine:3.19
COPY app.txt /opt/app/app.txt
WORKDIR /opt/app
RUN echo here > here.txt
`},
		{"workdir-base-dir", `FROM alpine:3.19
RUN echo a > /a
WORKDIR /usr/bin
RUN echo marker > marker
`},
		{"workdir-missing", `FROM alpine:3.19
RUN echo a > /a
WORKDIR /srv/new/deep
RUN echo x > x.txt
`},
		{"workdir-relative", `FROM alpine:3.19
RUN echo a > /a
WORKDIR /usr
WORKDIR bin
COPY app.txt rel.txt
RUN echo r > r.txt
`},
		{"workdir-symlink", `FROM alpine:3.19
RUN mkdir -p /real && ln -s /real /link
WORKDIR /link
RUN echo via > via.txt
`},
		{"workdir-after-whiteout", `FROM alpine:3.19
RUN echo > /w
RUN rm /w
WORKDIR /w
RUN echo now-a-dir > inside
`},
		{"workdir-file", `FROM alpine:3.19
RUN echo x > /f
WORKDIR /f
RUN echo never > never
`},
		{"workdir-removed-later", `FROM alpine:3.19
WORKDIR /scratch/dir
RUN echo in > in.txt
RUN rm -rf /scratch
RUN echo after > /after
`},
		{"workdir-from-stage", `FROM alpine:3.19 AS base
WORKDIR /opt
RUN echo base > marker

FROM base
WORKDIR sub
RUN echo x > x.txt
`},
		{"copy-from-cached-stage", `FROM alpine:3.19 AS build
RUN mkdir -p /out && echo built > /out/bin

FROM alpine:3.19
COPY --from=build /out/bin /app/bin
RUN echo done > /app/done
`},
	}
	for _, e := range extra {
		out = append(out, oracleCase{e.name, e.text, ForceSeccomp})
	}
	return out
}

// oracleFresh is a fresh process's in-memory view: a world and an empty
// store.
func oracleFresh(t *testing.T) (*pkgmgr.World, *image.Store) {
	t.Helper()
	return pkgmgr.NewWorld(), image.NewStore()
}

// oracleBuild runs one build of text under c's mode.
func oracleBuild(t *testing.T, c oracleCase, text string, opt Options) (*Result, oracleOutcome) {
	t.Helper()
	opt.Force = c.force
	opt.Context = oracleContext
	if opt.Tag == "" {
		opt.Tag = "oracle:1"
	}
	res, err := BuildContext(context.Background(), text, opt)
	return res, outcomeOf(t, res, err)
}

// oracleCold is the reference: a fresh store, no cache, one stage at a time.
func oracleCold(t *testing.T, c oracleCase, text string) oracleOutcome {
	t.Helper()
	w, s := oracleFresh(t)
	_, o := oracleBuild(t, c, text, Options{Store: s, World: w, StageJobs: 1})
	return o
}

func sameOutcome(t *testing.T, path string, got, want oracleOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got  %v\n want %v", path, got, want)
	}
}

// checkCheckout holds a fully cached build that succeeds to a checkout:
// no tree, so no modeled time and no flatten fill.
func checkCheckout(t *testing.T, path string, res *Result, o oracleOutcome, s *image.Store, fills0 int) {
	t.Helper()
	if o.Err != "" {
		return
	}
	if res.VirtualNanos != 0 {
		t.Errorf("%s: fully cached build modeled %d ns, want 0", path, res.VirtualNanos)
	}
	if fills := s.FlattenFills(); fills != fills0 {
		t.Errorf("%s: fully cached build paid %d flatten fills", path, fills-fills0)
	}
}

// oracleVariants are the partial-hit texts of c: one more RUN at the end,
// and the last RUN edited (when there is one).
func oracleVariants(text string) map[string]string {
	out := map[string]string{"extra-run": text + "RUN echo extra > /extra\n"}
	lines := strings.Split(text, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], "RUN ") {
			lines[i] += " && echo edited > /edited"
			out["edited-run"] = strings.Join(lines, "\n")
			break
		}
	}
	return out
}

func TestDeterminismAcrossBuildPaths(t *testing.T) {
	for _, c := range oracleCorpus() {
		t.Run(c.name, func(t *testing.T) {
			want := oracleCold(t, c, c.text)

			// Warm in memory: one Cache across two builds on one store.
			w, s := oracleFresh(t)
			cache := NewCache()
			_, first := oracleBuild(t, c, c.text, Options{Store: s, World: w, Cache: cache})
			sameOutcome(t, "cold with cache", first, want)
			fills0 := s.FlattenFills()
			res, warm := oracleBuild(t, c, c.text, Options{Store: s, World: w, Cache: cache})
			sameOutcome(t, "warm in memory", warm, want)
			checkCheckout(t, "warm in memory", res, warm, s, fills0)

			// Warm from disk: the second invocation reopens the Dir and
			// builds with a fresh world, store and cache.
			root := t.TempDir()
			for i, path := range []string{"cold from disk", "warm from disk"} {
				d, _, err := cas.Open(root)
				if err != nil {
					t.Fatal(err)
				}
				w, s := pkgmgr.NewWorld(), image.NewStore()
				s.SetBacking(d)
				fills0 := s.FlattenFills()
				res, got := oracleBuild(t, c, c.text, Options{Store: s, World: w, Cache: NewPersistentCache(d)})
				sameOutcome(t, path, got, want)
				if i == 1 && got.Err == "" && res.Executed != 0 {
					t.Errorf("warm from disk executed %d instructions", res.Executed)
				}
				if i == 1 {
					checkCheckout(t, path, res, got, s, fills0)
				}
				d.Close()
			}

			// Partial hits: the cache holds c.text; each variant replays the
			// shared prefix and executes the rest.
			for vname, vtext := range oracleVariants(c.text) {
				vwant := oracleCold(t, c, vtext)
				w, s := oracleFresh(t)
				cache := NewCache()
				oracleBuild(t, c, c.text, Options{Store: s, World: w, Cache: cache})
				_, got := oracleBuild(t, c, vtext, Options{Store: s, World: w, Cache: cache})
				sameOutcome(t, "partial hit ("+vname+")", got, vwant)
			}

			// Pooled: 8 jobs of the one Dockerfile on 4 workers, one cache.
			w, s = oracleFresh(t)
			cache = NewCache()
			jobs := make([]Job, 8)
			for i := range jobs {
				jobs[i] = Job{Dockerfile: c.text, Options: Options{
					Tag: fmt.Sprintf("oracle-pool:%d", i), Force: c.force,
					Store: s, World: w, Cache: cache, Context: oracleContext,
				}}
			}
			results, _ := (&Pool{Workers: 4}).RunContext(context.Background(), jobs)
			for i, r := range results {
				sameOutcome(t, fmt.Sprintf("pooled job %d", i), outcomeOf(t, r.Result, r.Err), want)
			}

			// The stage scheduler at full width.
			w, s = oracleFresh(t)
			_, wide := oracleBuild(t, c, c.text, Options{Store: s, World: w, StageJobs: 0})
			sameOutcome(t, "StageJobs=N", wide, want)
		})
	}
}
