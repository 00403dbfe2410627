// Package dockerfile parses Dockerfiles into stage-structured instruction
// lists, covering the subset ch-image supports plus the instructions the
// experiments use: FROM (including multi-stage `FROM ref AS name`), RUN
// (shell and exec form), COPY (including `COPY --from=stage`), ADD, ENV,
// ARG, WORKDIR, USER, LABEL, CMD, ENTRYPOINT, SHELL, EXPOSE, VOLUME,
// STOPSIGNAL, comment handling, line continuations, and ARG/ENV variable
// expansion at build time (performed by the builder, not the parser).
//
// A parsed File carries both the flat instruction list and the stage
// structure: one Stage per FROM, each with its own instruction body, plus
// a validated stage-reference DAG. Stage references (a FROM naming an
// earlier stage, or COPY --from by name or index) may only point backward;
// forward and self references are rejected at parse time with line
// numbers, which also makes reference cycles impossible by construction.
// The complete dialect, including known divergences from Docker/BuildKit,
// is documented in docs/dockerfile-dialect.md.
package dockerfile

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Instruction is one parsed Dockerfile instruction.
type Instruction struct {
	// Cmd is the upper-cased instruction name ("FROM", "RUN", ...).
	Cmd string
	// Raw is the full argument string after the instruction word, with
	// continuations folded.
	Raw string
	// ExecForm is the parsed JSON array for exec-form RUN/CMD/ENTRYPOINT,
	// nil for shell form.
	ExecForm []string
	// Line is the 1-based source line of the instruction start.
	Line int
	// From is the value of a COPY --from= flag, "" when absent.
	From string
	// FromStage is the index of the stage a COPY --from references, -1
	// when the instruction has no --from or it names an external image.
	FromStage int
}

// Stage is one FROM block of a (possibly multi-stage) Dockerfile: the FROM
// instruction itself plus every instruction up to the next FROM.
type Stage struct {
	// Index is the stage's 0-based position in the Dockerfile.
	Index int
	// Name is the lower-cased `AS name`, "" for anonymous stages.
	Name string
	// Base is the FROM reference with any AS clause stripped, unexpanded.
	Base string
	// BaseStage is the index of the earlier stage Base names, or -1 when
	// Base is an external image reference.
	BaseStage int
	// Line is the 1-based source line of the FROM.
	Line int
	// From is the stage's FROM instruction.
	From Instruction
	// Body holds the stage's instructions after FROM, in order.
	Body []Instruction
	// Deps lists the indices of earlier stages this stage reads — its FROM
	// base and every COPY --from source — sorted and deduplicated. The
	// per-stage Deps slices together form the stage DAG.
	Deps []int
}

// File is a parsed Dockerfile.
type File struct {
	// Instructions is the flat instruction list, in source order
	// (GlobalArgs and every stage's FROM and body included).
	Instructions []Instruction
	// GlobalArgs holds the ARG instructions before the first FROM.
	GlobalArgs []Instruction
	// Stages holds one entry per FROM, in source order. The last stage is
	// the build target; stages it does not transitively reference are
	// unreachable (see Reachable) and builders prune them.
	Stages []Stage
}

// ParseError reports a syntax error with its line.
type ParseError struct {
	Line   int
	Reason string
}

// Error renders the error as "dockerfile: line N: reason".
func (e *ParseError) Error() string {
	return fmt.Sprintf("dockerfile: line %d: %s", e.Line, e.Reason)
}

// knownInstructions gates parsing; unknown instructions are errors, as in
// BuildKit.
var knownInstructions = map[string]bool{
	"FROM": true, "RUN": true, "COPY": true, "ADD": true, "ENV": true,
	"ARG": true, "WORKDIR": true, "USER": true, "LABEL": true, "CMD": true,
	"ENTRYPOINT": true, "SHELL": true, "EXPOSE": true, "VOLUME": true,
	"STOPSIGNAL": true, "HEALTHCHECK": true, "ONBUILD": true,
	"MAINTAINER": true,
}

// Parse parses Dockerfile text.
func Parse(text string) (*File, error) {
	var f File
	lines := strings.Split(text, "\n")
	i := 0
	for i < len(lines) {
		startLine := i + 1
		line := lines[i]
		i++
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		// Fold continuations; a trailing backslash joins the next
		// non-comment line (comment lines inside a continuation are
		// skipped, as BuildKit does).
		full := trimmed
		for strings.HasSuffix(full, "\\") && i < len(lines) {
			full = strings.TrimSpace(strings.TrimSuffix(full, "\\"))
			for i < len(lines) {
				next := strings.TrimSpace(lines[i])
				i++
				if strings.HasPrefix(next, "#") {
					continue
				}
				full += " " + next
				break
			}
		}
		word, rest, _ := strings.Cut(full, " ")
		cmd := strings.ToUpper(word)
		if !knownInstructions[cmd] {
			return nil, &ParseError{Line: startLine, Reason: fmt.Sprintf("unknown instruction %q", word)}
		}
		ins := Instruction{Cmd: cmd, Raw: strings.TrimSpace(rest), Line: startLine, FromStage: -1}
		if ins.Raw == "" && cmd != "HEALTHCHECK" {
			return nil, &ParseError{Line: startLine, Reason: cmd + " requires arguments"}
		}
		if cmd == "RUN" || cmd == "CMD" || cmd == "ENTRYPOINT" || cmd == "SHELL" {
			if strings.HasPrefix(ins.Raw, "[") {
				var exec []string
				if err := json.Unmarshal([]byte(ins.Raw), &exec); err != nil {
					return nil, &ParseError{Line: startLine, Reason: "malformed exec form: " + err.Error()}
				}
				ins.ExecForm = exec
			}
		}
		f.Instructions = append(f.Instructions, ins)
	}
	if len(f.Instructions) == 0 {
		return nil, &ParseError{Line: 1, Reason: "empty Dockerfile"}
	}
	// The first non-ARG instruction must be FROM.
	for _, ins := range f.Instructions {
		if ins.Cmd == "ARG" {
			continue
		}
		if ins.Cmd != "FROM" {
			return nil, &ParseError{Line: ins.Line, Reason: "first instruction must be FROM"}
		}
		break
	}
	if err := f.structure(); err != nil {
		return nil, err
	}
	return &f, nil
}

// structure splits the flat instruction list into GlobalArgs and Stages,
// parses FROM AS clauses and COPY --from flags, and validates the stage
// reference DAG: names may not be reused, references resolve only to
// earlier stages, and forward or self references are errors. Because every
// edge points backward, the resulting DAG cannot contain cycles.
func (f *File) structure() error {
	// Pass 1: split into stages and collect names.
	names := map[string]int{}
	for i := range f.Instructions {
		ins := &f.Instructions[i]
		if ins.Cmd != "FROM" {
			if len(f.Stages) == 0 {
				f.GlobalArgs = append(f.GlobalArgs, *ins)
				continue
			}
			st := &f.Stages[len(f.Stages)-1]
			st.Body = append(st.Body, *ins)
			continue
		}
		st := Stage{Index: len(f.Stages), BaseStage: -1, Line: ins.Line, From: *ins}
		base, name, err := parseFromClause(ins.Raw, ins.Line)
		if err != nil {
			return err
		}
		st.Base, st.Name = base, name
		if name != "" {
			if prev, dup := names[name]; dup {
				return &ParseError{Line: ins.Line, Reason: fmt.Sprintf(
					"stage name %q already used by stage %d", name, prev)}
			}
			names[name] = st.Index
		}
		f.Stages = append(f.Stages, st)
	}

	// Pass 2: resolve stage references and build the DAG. Bodies hold
	// copies of the flat instructions, so resolution is written to both.
	for i := range f.Stages {
		st := &f.Stages[i]
		if idx, ok := names[strings.ToLower(st.Base)]; ok {
			if idx >= st.Index {
				return &ParseError{Line: st.Line, Reason: fmt.Sprintf(
					"FROM %s: forward reference to stage %d (stages may only reference earlier stages)",
					st.Base, idx)}
			}
			st.BaseStage = idx
		}
		for j := range st.Body {
			ins := &st.Body[j]
			if err := parseCopyFrom(ins, st.Index, len(f.Stages), names); err != nil {
				return err
			}
		}
		st.Deps = stageDeps(st)
	}

	// Mirror the resolved From/FromStage fields back onto the flat list so
	// both views of the file agree (bodies hold copies).
	syncFlat(f)
	return nil
}

// syncFlat copies each stage body's resolved From/FromStage back onto the
// corresponding flat Instructions entries, matched by source line.
func syncFlat(f *File) {
	byLine := map[int]*Instruction{}
	for i := range f.Instructions {
		byLine[f.Instructions[i].Line] = &f.Instructions[i]
	}
	for i := range f.Stages {
		for j := range f.Stages[i].Body {
			b := &f.Stages[i].Body[j]
			if flat, ok := byLine[b.Line]; ok {
				flat.From, flat.FromStage = b.From, b.FromStage
			}
		}
	}
}

// parseFromClause splits "ref [AS name]", validating the stage name and
// rejecting flags (e.g. --platform, which the simulation cannot honor).
func parseFromClause(raw string, line int) (base, name string, err error) {
	fields := strings.Fields(raw)
	for _, w := range fields {
		if strings.HasPrefix(w, "--") {
			return "", "", &ParseError{Line: line, Reason: "unsupported FROM flag " + w}
		}
	}
	switch {
	case len(fields) == 1:
		return fields[0], "", nil
	case len(fields) == 3 && strings.EqualFold(fields[1], "AS"):
		name = strings.ToLower(fields[2])
		if !validStageName(name) {
			return "", "", &ParseError{Line: line, Reason: fmt.Sprintf("invalid stage name %q", fields[2])}
		}
		return fields[0], name, nil
	default:
		return "", "", &ParseError{Line: line, Reason: "malformed FROM: want FROM <ref> [AS <name>]"}
	}
}

// parseCopyFrom extracts and resolves a COPY --from= flag. Only the
// leading --flags of COPY/ADD are inspected (Docker's flag position), so
// shell text in other instructions — or a COPY source that merely looks
// like a flag — is never misparsed. References by index or by the name of
// a stage must point strictly backward; an unknown name is an external
// image reference resolved at build time. ADD does not accept --from (as
// in Docker).
func parseCopyFrom(ins *Instruction, stageIdx, nStages int, names map[string]int) error {
	if ins.Cmd != "COPY" && ins.Cmd != "ADD" {
		return nil
	}
	var from string
	inFlags := true
	for _, w := range strings.Fields(ins.Raw) {
		if !strings.HasPrefix(w, "--") {
			inFlags = false // flags precede arguments
			continue
		}
		if !strings.HasPrefix(w, "--from=") {
			continue
		}
		if !inFlags {
			// Docker treats a misplaced flag as a literal path and fails;
			// silently copying from the context instead would be worse.
			return &ParseError{Line: ins.Line, Reason: "--from must precede the source arguments"}
		}
		if ins.Cmd != "COPY" {
			return &ParseError{Line: ins.Line, Reason: ins.Cmd + " does not support --from"}
		}
		if from != "" {
			return &ParseError{Line: ins.Line, Reason: "duplicate --from flag"}
		}
		from = strings.TrimPrefix(w, "--from=")
		if from == "" {
			return &ParseError{Line: ins.Line, Reason: "--from requires a stage name, index or image reference"}
		}
	}
	if from == "" {
		return nil
	}
	ins.From = from
	if idx, err := strconv.Atoi(from); err == nil {
		if idx < 0 || idx >= nStages {
			return &ParseError{Line: ins.Line, Reason: fmt.Sprintf(
				"COPY --from=%d: stage index out of range (%d stages)", idx, nStages)}
		}
		if idx >= stageIdx {
			return &ParseError{Line: ins.Line, Reason: fmt.Sprintf(
				"COPY --from=%d: forward or self reference (this is stage %d)", idx, stageIdx)}
		}
		ins.FromStage = idx
		return nil
	}
	if idx, ok := names[strings.ToLower(from)]; ok {
		if idx >= stageIdx {
			return &ParseError{Line: ins.Line, Reason: fmt.Sprintf(
				"COPY --from=%s: forward or self reference to stage %d (this is stage %d)",
				from, idx, stageIdx)}
		}
		ins.FromStage = idx
	}
	return nil
}

// stageDeps collects the earlier stages st reads: its FROM base plus every
// COPY --from source, sorted and deduplicated.
func stageDeps(st *Stage) []int {
	seen := map[int]bool{}
	if st.BaseStage >= 0 {
		seen[st.BaseStage] = true
	}
	for _, ins := range st.Body {
		if ins.FromStage >= 0 {
			seen[ins.FromStage] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ { // insertion sort; deps are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// validStageName reports whether name is a legal stage name
// ([a-zA-Z][a-zA-Z0-9_.-]*, already lower-cased by the caller).
func validStageName(name string) bool {
	if name == "" || !(name[0] >= 'a' && name[0] <= 'z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-') {
			return false
		}
	}
	return true
}

// StageIndex resolves a stage reference — a name (case-insensitive) or a
// decimal index — to a stage index.
func (f *File) StageIndex(ref string) (int, bool) {
	if idx, err := strconv.Atoi(ref); err == nil {
		return idx, idx >= 0 && idx < len(f.Stages)
	}
	want := strings.ToLower(ref)
	for i := range f.Stages {
		if f.Stages[i].Name == want && want != "" {
			return i, true
		}
	}
	return 0, false
}

// ReachableFrom reports, per stage, whether stage root transitively
// depends on it (root itself included) — the reachability a build prunes
// against, root being the final stage or the --target one. Builders skip
// unreachable stages entirely: they are parsed and validated but never
// executed. An out-of-range root marks nothing reachable.
func (f *File) ReachableFrom(root int) []bool {
	seen := make([]bool, len(f.Stages))
	var visit func(int)
	visit = func(i int) {
		if seen[i] {
			return
		}
		seen[i] = true
		for _, d := range f.Stages[i].Deps {
			visit(d)
		}
	}
	if root >= 0 && root < len(f.Stages) {
		visit(root)
	}
	return seen
}

// KeyValues parses "K=V K2=V2" or legacy "K V" argument forms (ENV, LABEL,
// ARG).
func KeyValues(raw string) (map[string]string, error) {
	out := map[string]string{}
	if !strings.Contains(raw, "=") {
		// Legacy form: ENV key value...
		k, v, ok := strings.Cut(raw, " ")
		if !ok {
			// ARG without default.
			out[strings.TrimSpace(raw)] = ""
			return out, nil
		}
		out[k] = strings.TrimSpace(v)
		return out, nil
	}
	for _, tok := range splitQuoted(raw) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("dockerfile: malformed key=value %q", tok)
		}
		out[k] = unquote(v)
	}
	return out, nil
}

// splitQuoted splits on spaces outside quotes.
func splitQuoted(s string) []string {
	var out []string
	var cur strings.Builder
	quote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			cur.WriteByte(c)
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
			cur.WriteByte(c)
		case c == ' ' || c == '\t':
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1]
	}
	return s
}

// Expand substitutes $VAR and ${VAR} (with ${VAR:-default} support)
// against the build-time variable table.
func Expand(s string, vars map[string]string) string {
	var b strings.Builder
	i := 0
	for i < len(s) {
		if s[i] != '$' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if i+1 < len(s) && s[i+1] == '{' {
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				b.WriteByte(s[i])
				i++
				continue
			}
			expr := s[i+2 : i+end]
			name, def, hasDef := strings.Cut(expr, ":-")
			if v, ok := vars[name]; ok && v != "" {
				b.WriteString(v)
			} else if hasDef {
				b.WriteString(def)
			}
			i += end + 1
			continue
		}
		j := i + 1
		for j < len(s) && (isAlnum(s[j]) || s[j] == '_') {
			j++
		}
		if j == i+1 {
			b.WriteByte(s[i])
			i++
			continue
		}
		b.WriteString(vars[s[i+1:j]])
		i = j
	}
	return b.String()
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
