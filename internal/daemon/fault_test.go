package daemon

// Fault injection through the daemon path: builds served over HTTP
// against a cas store with faults at every failpoint must finish
// succeeded (possibly degraded, surfaced in the operation JSON) or
// failed-clean, and the store must reopen undamaged after the daemon
// releases it — the TestFaultSoak invariants (internal/build) driven
// end to end. `make fault-smoke` raises FAULT_SOAK_DAEMON_BUILDS.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cas"
)

// TestDaemonFaultSoak cycles daemons over one cas store, each serving a
// few faulty builds. FAULT_SOAK_DAEMON_BUILDS sets the total build count
// (default 12); FAULT_SOAK_SEED pins the randomness.
func TestDaemonFaultSoak(t *testing.T) {
	builds := 12
	if v := os.Getenv("FAULT_SOAK_DAEMON_BUILDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("FAULT_SOAK_DAEMON_BUILDS=%q: %v", v, err)
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
	root := filepath.Join(t.TempDir(), "cas")
	rng := rand.New(rand.NewSource(seed))

	rates := map[cas.Op]float64{}
	for _, op := range cas.AllOps {
		rates[op] = 0.15
	}

	// The soak dockerfiles repeat across daemons so later rounds hit the
	// persistent cache warm — faults land on both the record and replay
	// paths.
	dockerfile := func(i int) string {
		return fmt.Sprintf("FROM alpine:3.19\nRUN echo soak-%d > /s\nRUN echo done > /done\n", i%3)
	}

	const perDaemon = 4
	succeeded, degraded, failed := 0, 0, 0
	for done := 0; done < builds; {
		d, err := New(Config{
			Jobs:     2,
			CacheDir: root,
			Faults:   cas.NewPlan(rng.Int63(), rates),
		})
		if err != nil {
			t.Fatalf("build %d: daemon failed to open the store: %v", done, err)
		}
		if d.Report().Quarantined() {
			t.Errorf("build %d: store reopened with damage: %+v", done, d.Report())
		}
		srv := serveDaemon(t, d)

		n := perDaemon
		if builds-done < n {
			n = builds - done
		}
		ids := make([]string, 0, n)
		for i := 0; i < n; i++ {
			var op Operation
			req := BuildRequest{Tag: fmt.Sprintf("soak:%d", (done+i)%3), Dockerfile: dockerfile(done + i)}
			if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req, &op); code != http.StatusAccepted {
				t.Fatalf("build %d: POST status %d", done+i, code)
			}
			ids = append(ids, op.ID)
		}
		for i, id := range ids {
			fin := pollOp(t, srv.URL, id)
			switch fin.Status {
			case StatusSucceeded:
				if fin.Result == nil {
					t.Errorf("build %d: succeeded without a result", done+i)
				} else if fin.Result.Degraded {
					// The degraded contract on the wire: succeeded, with
					// the persistence failures enumerated.
					if len(fin.Result.DegradedErrs) == 0 {
						t.Errorf("build %d: degraded with no DegradedErrs", done+i)
					}
					degraded++
				} else {
					succeeded++
				}
			case StatusFailed:
				// Failed-clean is allowed; a hang or a damaged store is
				// not (asserted by pollOp's deadline and the reopen).
				if fin.Error == "" {
					t.Errorf("build %d: failed with no error message", done+i)
				}
				failed++
			default:
				t.Errorf("build %d: unexpected terminal status %s", done+i, fin.Status)
			}
		}
		done += n

		// Tear the daemon down (releasing the flock), reopen and fsck:
		// no damage, no matter what the faults did.
		srv.Close()
		shutdownDaemon(t, d)
		d2, _, err := cas.Open(root)
		if err != nil {
			t.Fatalf("post-daemon reopen failed: %v", err)
		}
		rep, err := d2.Fsck(context.Background())
		if err != nil {
			t.Fatalf("post-daemon fsck failed: %v", err)
		}
		if rep.Quarantined() {
			t.Errorf("post-daemon reopen found damage: %+v", rep)
		}
		d2.Close()
	}

	// A final fault-free daemon over the surviving store: the warm path
	// must build cleanly.
	d, err := New(Config{Jobs: 1, CacheDir: root})
	if err != nil {
		t.Fatalf("final daemon: %v", err)
	}
	if d.Report().Quarantined() {
		t.Fatalf("final open found damage: %+v", d.Report())
	}
	srv := serveDaemon(t, d)
	var op Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "soak:final", Dockerfile: dockerfile(0)}, &op); code != http.StatusAccepted {
		t.Fatalf("final POST: status %d", code)
	}
	fin := pollOp(t, srv.URL, op.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("final fault-free build: status %s, error %q", fin.Status, fin.Error)
	}
	if fin.Result.Degraded {
		t.Fatalf("final fault-free build degraded: %v", fin.Result.DegradedErrs)
	}
	srv.Close()
	shutdownDaemon(t, d)
	t.Logf("daemon soak: %d builds (seed %d): %d clean, %d degraded, %d failed cleanly",
		builds, seed, succeeded, degraded, failed)
}

// New fscks the store once, before any build, and puts no base itself: a
// damaged base blob is quarantined there, and the first build that names
// the base puts it back whole, so the next fsck finds nothing.
func TestNewFscksThenFirstFromHeals(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	build := func(d *Daemon) {
		t.Helper()
		srv := serveDaemon(t, d)
		defer srv.Close()
		var op Operation
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
			BuildRequest{Tag: "heal:1", Dockerfile: "FROM alpine:3.19\nRUN echo a > /a\n"}, &op); code != http.StatusAccepted {
			t.Fatalf("POST: status %d", code)
		}
		if fin := pollOp(t, srv.URL, op.ID); fin.Status != StatusSucceeded {
			t.Fatalf("build: status %s, error %q", fin.Status, fin.Error)
		}
	}
	d, err := New(Config{Jobs: 1, CacheDir: root})
	if err != nil {
		t.Fatal(err)
	}
	if tags := d.Store().Tags(); len(tags) != 0 {
		t.Fatalf("a new daemon's store holds %v, want no tag", tags)
	}
	build(d)
	shutdownDaemon(t, d)
	dir, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	tg, ok := dir.Tag("alpine:3.19")
	if err := dir.Close(); err != nil || !ok {
		t.Fatalf("alpine:3.19 persisted=%v, close: %v", ok, err)
	}
	hexpart := strings.TrimPrefix(tg.Layers[0], cas.DigestPrefix)
	if err := os.WriteFile(filepath.Join(root, "blobs", "sha256", hexpart[:2], hexpart[2:]), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err = New(Config{Jobs: 1, CacheDir: root})
	if err != nil {
		t.Fatal(err)
	}
	if rep := d.Report(); rep.BlobsQuarantined != 1 {
		t.Fatalf("startup fsck: %+v, want the base blob quarantined", rep)
	}
	build(d)
	shutdownDaemon(t, d)

	dir, _, err = cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	if rep, err := dir.Fsck(context.Background()); err != nil || rep.Quarantined() {
		t.Fatalf("fsck after the re-put: %+v, %v", rep, err)
	}
}
