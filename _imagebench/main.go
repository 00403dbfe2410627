// Command imagebench is the repository's benchmark. It builds seeded
// Dockerfiles the ways users reach the image builder — `ch-image build`
// invocations against a persistent cache directory, and requests to a
// resident ch-imaged — checks every image against a reference build, and
// reports end-to-end latency, throughput and set-up time or, with
// --trace 1, where each build's time went, layer by layer.
//
// Run it from the repository root through its launcher, which builds it
// from source first:
//
//	bash _imagebench/run.sh --workload cold|warm|daemon --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/dockerfile"
)

// setupRepeats is how many times a run brings its system up; set-up is
// short, so the run reports the median of several.
const setupRepeats = 5

// system is one workload's system under test.
type system interface {
	// setup brings a fresh system up in dir, ready for the measured
	// window.
	setup(ctx context.Context, dir string) error
	// op runs and checks client c's i-th build.
	op(ctx context.Context, c *client, i int, traced bool) (sample, error)
	// metrics reads the engine's counters the way an operator would.
	metrics(ctx context.Context) (map[string]float64, error)
	// verify checks what the window left behind.
	verify(ctx context.Context) error
	// stop tears the system down.
	stop(ctx context.Context) error
}

// client is one closed-loop user: it sends its next build only after
// the previous one finished.
type client struct {
	id  int
	rng *rand.Rand
	gen *generator
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("imagebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "cold, warm or daemon")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for cache directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "imagebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	gen := newGenerator(*seed)
	var (
		sys     system
		inputs  []*input
		clients = 1
	)
	switch *workload {
	case "cold", "warm":
		inputs = gen.set(*workload, cliTemplates)
		sys = &cliSystem{inputs: inputs, cold: *workload == "cold"}
	case "daemon":
		inputs = gen.set(*workload, daemonVariants)
		sys = &daemonSystem{variants: inputs}
		clients = daemonClients
	default:
		fmt.Fprintf(os.Stderr, "imagebench: unknown --workload %q (want cold, warm or daemon)\n", *workload)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	res, err := measure(ctx, sys, inputs, *seed, dir, clients, time.Duration(*seconds)*time.Second, *trace == 1)
	// Deleting files and the write-back they leave would otherwise land
	// in the next run's measurements.
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	syscall.Sync()
	if err != nil {
		fmt.Fprintf(os.Stderr, "imagebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imagebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure builds the reference image of every input, sets the system up
// setupRepeats times, then lets the clients build until the window
// closes, and checks what they built. Nothing is deleted before the
// window closes: unlinking is slow and uneven on some filesystems, and
// users do not delete their cache directories between builds.
func measure(ctx context.Context, sys system, inputs []*input, seed int64, dir string, clients int, window time.Duration, traced bool) (*result, error) {
	for _, in := range inputs {
		if err := reference(ctx, in); err != nil {
			return nil, err
		}
	}
	// Start from no dirty pages: write-back of earlier work (the build of
	// this program, a previous run) must not compete with the window.
	syscall.Sync()
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		d := filepath.Join(dir, fmt.Sprintf("system-%d", r))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		err := sys.setup(ctx, d)
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRepeats-1 || err != nil {
			err = errors.Join(err, sys.stop(ctx))
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer sys.stop(ctx)

	var before map[string]float64
	var err error
	if traced {
		if before, err = sys.metrics(ctx); err != nil {
			return nil, err
		}
	}
	// Every window starts from a collected heap.
	runtime.GC()
	var (
		mu        sync.Mutex
		samples   []sample
		attempted int
		firstErr  error
		wg        sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for id := 0; id < clients; id++ {
		c := &client{
			id:  id,
			rng: rand.New(rand.NewSource(seed + int64(id)<<32)),
			gen: newGenerator(seed ^ int64(id+1)<<40),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
				s, err := sys.op(ctx, c, i, traced)
				s.done = time.Since(start)
				mu.Lock()
				attempted++
				if err == nil {
					samples = append(samples, s)
				} else if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &result{Attempted: attempted, Failed: attempted - len(samples)}
	if traced {
		after, err := sys.metrics(ctx)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(samples, before, after)
	} else {
		res.Metrics = endToEnd(samples, window, time.Duration(median(setups)*float64(time.Second)))
	}
	verr := sys.verify(ctx)
	for _, err := range []error{firstErr, verr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "imagebench: incorrect: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0 && verr == nil && len(samples) > 0
	return res, nil
}

// timeParse times the Dockerfile parser on one input.
func timeParse(text string) time.Duration {
	t0 := time.Now()
	if _, err := dockerfile.Parse(text); err != nil {
		return 0
	}
	return time.Since(t0)
}
