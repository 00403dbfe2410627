package daemon

// The JSON wire types of the ch-imaged REST API (see docs/daemon.md).
// Builds are asynchronous in the LXD shape: POST /v1/builds returns an
// operation immediately, and the client polls GET /v1/operations/{id}
// until it reaches a terminal status.

import "repro/internal/obs"

// BuildRequest is the body of POST /v1/builds.
type BuildRequest struct {
	// Tag names the result image ("name:tag"). Required.
	Tag string `json:"tag"`

	// Dockerfile is the build text. Required.
	Dockerfile string `json:"dockerfile"`

	// Context holds the build-context files COPY/ADD resolve against;
	// values are base64-encoded in JSON (encoding/json's []byte rule).
	Context map[string][]byte `json:"context,omitempty"`

	// Force selects the root-emulation mechanism: none, seccomp,
	// fakeroot or proot. Empty uses the daemon's default.
	Force string `json:"force,omitempty"`

	// Target stops a multi-stage build at the named stage (name or
	// decimal index) and tags that instead.
	Target string `json:"target,omitempty"`

	// BuildArgs overrides ARG defaults.
	BuildArgs map[string]string `json:"buildArgs,omitempty"`

	// StageJobs bounds how many independent stages of a multi-stage
	// build run concurrently, from 1 to the daemon's --jobs; omitted or 0
	// means --jobs. Other values are rejected with 400.
	StageJobs int `json:"stageJobs,omitempty"`

	// TimeoutMS, when > 0, bounds the whole build in milliseconds; an
	// overrunning build fails at its next instruction boundary. Values
	// above math.MaxInt64/1e6 do not fit a time.Duration and are rejected
	// with 400.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`

	// InstrTimeoutMS, when > 0, bounds each instruction in milliseconds;
	// the same upper limit applies.
	InstrTimeoutMS int64 `json:"instrTimeoutMs,omitempty"`
}

// Progress is an operation's most recent instruction boundary.
type Progress struct {
	// Step is the 1-based index of the instruction last reported.
	Step int `json:"step"`

	// Total is the stage's instruction count.
	Total int `json:"total"`

	// Cmd is the instruction name at that boundary.
	Cmd string `json:"cmd,omitempty"`
}

// BuildResult summarises a finished build (build.Result on the wire).
type BuildResult struct {
	Executed      int   `json:"executed"`
	CacheHits     int   `json:"cacheHits"`
	StagesBuilt   int   `json:"stagesBuilt,omitempty"`
	StagesSkipped int   `json:"stagesSkipped,omitempty"`
	ModifiedRuns  int   `json:"modifiedRuns,omitempty"`
	VirtualNanos  int64 `json:"virtualNanos,omitempty"`

	// Degraded reports a build that succeeded in memory while some of
	// its persistence failed — the image is correct and tagged, the
	// on-disk cache is merely colder (docs/cas.md). DegradedErrs holds
	// the failure messages.
	Degraded     bool     `json:"degraded,omitempty"`
	DegradedErrs []string `json:"degradedErrs,omitempty"`
}

// Operation is one asynchronous build as the API renders it.
type Operation struct {
	ID     string `json:"id"`
	Tag    string `json:"tag"`
	Status string `json:"status"`

	// RFC 3339 timestamps; StartedAt/FinishedAt are empty until the
	// operation reaches those states.
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`

	// Progress is the most recent instruction boundary of a running
	// build; absent before the first boundary.
	Progress *Progress `json:"progress,omitempty"`

	// Transcript is the tail of the build transcript (bounded by the
	// daemon's transcript-tail setting); TranscriptTruncated reports
	// that earlier output was dropped from this rendering.
	Transcript          string `json:"transcript,omitempty"`
	TranscriptTruncated bool   `json:"transcriptTruncated,omitempty"`

	// Result is present once the build finished (including the partial
	// counters of a failed or cancelled build).
	Result *BuildResult `json:"result,omitempty"`

	// Spans is the build's span timeline: the root build span with one
	// child per stage and, under each, one per instruction. Spans of a
	// live operation report elapsed time with running=true.
	Spans *obs.SpanData `json:"spans,omitempty"`

	// Error is the failure message of a failed or cancelled operation.
	Error string `json:"error,omitempty"`
}

// OperationsResponse is the body of GET /v1/operations.
type OperationsResponse struct {
	Operations []Operation `json:"operations"`
}

// ImagesResponse is the body of GET /v1/images: the tags visible in the
// daemon's shared image store.
type ImagesResponse struct {
	Tags []string `json:"tags"`
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	// Jobs is the number of build slots; QueueCap the admission bound
	// (running + queued operations the daemon accepts before 429).
	Jobs     int `json:"jobs"`
	QueueCap int `json:"queueCap"`

	// Active counts admitted, unsettled operations; InFlight the builds
	// holding a slot right now.
	Active   int  `json:"active"`
	InFlight int  `json:"inFlight"`
	Draining bool `json:"draining"`

	// Cache totals across every build the daemon has run.
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`

	// Operations counts operations by status.
	Operations map[string]int `json:"operations"`

	// Persistent reports whether the daemon holds a cas-backed store.
	Persistent bool `json:"persistent"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}
