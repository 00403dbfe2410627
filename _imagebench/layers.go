package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// sample is one measured build as its user saw it.
type sample struct {
	latency time.Duration
	done    time.Duration // when it finished, from the window's start

	// The build's own report.
	executed, hits int
	vns            int64

	// Trace runs only: the latency split by layer (see attribute).
	parse                         time.Duration
	wait, from, run, copy, finish time.Duration
}

// attribute splits one build's latency by layer, from outside the engine:
// the benchmark timed the request from start to end, and the engine's
// span tree (root, one span per stage, one per instruction) says when
// each instruction ran. rootStart is the wall time the tree's offsets are
// relative to.
//
//   - wait: start to the first instruction — opening the cache directory
//     and seeding the store for an invocation; admission and queueing for
//     a daemon request.
//   - from: FROM instructions — flattening or rehydrating the base chain.
//   - run: RUN instructions — emulated execution, layer snapshot and
//     commit on a miss; cache replay on a hit.
//   - copy: COPY instructions, including COPY --from.
//   - finish: the last instruction's end to the result reaching the user
//     — tagging, closing the store, the daemon's settle and the poll.
//
// What is left of the latency (metadata instructions, gaps between
// spans) is the "other" layer; the parts add up to the latency exactly.
func attribute(s *sample, tree obs.SpanData, rootStart, start, end time.Time) {
	var first, last time.Time
	for _, stage := range tree.Children {
		for _, ins := range stage.Children {
			b := rootStart.Add(msDuration(ins.StartMs))
			d := msDuration(ins.DurationMs)
			if first.IsZero() || b.Before(first) {
				first = b
			}
			if e := b.Add(d); e.After(last) {
				last = e
			}
			cmd, _, _ := strings.Cut(ins.Name, " ")
			switch cmd {
			case "FROM":
				s.from += d
			case "RUN":
				s.run += d
			case "COPY", "ADD":
				s.copy += d
			}
		}
	}
	if first.IsZero() {
		return
	}
	s.wait = first.Sub(start)
	s.finish = end.Sub(last)
}

func msDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// parseMetrics reads unlabelled series out of Prometheus text exposition.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, sc.Err()
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// slice is the stretch of the window each end-to-end figure is computed
// over. The run reports the median across slices: other tenants of a
// shared machine slow it for seconds at a time, and a median of
// one-second figures shrugs off such stretches where one figure over the
// whole window would not.
const slice = time.Second

// endToEnd turns the measured window into the user-visible metrics: the
// median and 90th percentile latency of the builds that finished in
// each slice, the builds finished per second, and the set-up time.
func endToEnd(samples []sample, window, setup time.Duration) map[string]metric {
	per := make([][]float64, window/slice)
	for _, s := range samples {
		if k := int(s.done / slice); k < len(per) {
			per[k] = append(per[k], ms(s.latency))
		}
	}
	var p50, p90, rate []float64
	for _, lat := range per {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
		rate = append(rate, float64(len(lat))/slice.Seconds())
	}
	return map[string]metric{
		"build_p50_ms": {median(p50), "ms"},
		"build_p90_ms": {median(p90), "ms"},
		"builds_per_s": {median(rate), "1/s"},
		"setup_s":      {setup.Seconds(), "s"},
	}
}

// perLayer turns a traced window into per-build layer figures. Times are
// means per build, so they add up to the mean latency; counts are per
// build too. before/after are the scraped engine counters.
func perLayer(samples []sample, before, after map[string]float64) map[string]metric {
	n := float64(len(samples))
	var t struct{ latency, parse, wait, from, run, copy, finish time.Duration }
	var executed, hits int
	var vns int64
	for _, s := range samples {
		t.latency += s.latency
		t.parse += s.parse
		t.wait += s.wait
		t.from += s.from
		t.run += s.run
		t.copy += s.copy
		t.finish += s.finish
		executed += s.executed
		hits += s.hits
		vns += s.vns
	}
	other := t.latency - t.wait - t.from - t.run - t.copy - t.finish
	per := func(v float64) float64 { return v / n }
	delta := func(name string) float64 { return per(after[name] - before[name]) }
	out := map[string]metric{
		"latency_mean_ms":    {per(ms(t.latency)), "ms"},
		"parse_ms":           {per(ms(t.parse)), "ms"},
		"wait_ms":            {per(ms(t.wait)), "ms"},
		"from_ms":            {per(ms(t.from)), "ms"},
		"run_ms":             {per(ms(t.run)), "ms"},
		"copy_ms":            {per(ms(t.copy)), "ms"},
		"finish_ms":          {per(ms(t.finish)), "ms"},
		"other_ms":           {per(ms(other)), "ms"},
		"executed":           {per(float64(executed)), "count"},
		"cache_hits":         {per(float64(hits)), "count"},
		"modeled_vns":        {per(float64(vns)), "vns"},
		"cas_read_bytes":     {delta("ch_cas_blob_read_bytes_total"), "bytes"},
		"cas_write_bytes":    {delta("ch_cas_blob_write_bytes_total"), "bytes"},
		"cas_io_ms":          {1000 * (delta("ch_cas_blob_read_seconds_sum") + delta("ch_cas_blob_write_seconds_sum")), "ms"},
		"journal_appends":    {delta("ch_cas_journal_appends_total"), "count"},
		"flatten_fills":      {delta("ch_image_flatten_fills_total"), "count"},
		"flatten_rehydrates": {delta("ch_image_flatten_rehydrates_total"), "count"},
		"builds":             {n, "count"},
	}
	if executed+hits > 0 {
		out["hit_ratio"] = metric{float64(hits) / float64(executed+hits), "ratio"}
	} else {
		out["hit_ratio"] = metric{0, "ratio"}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
