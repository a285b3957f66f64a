package core

import (
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
)

// WriteJSON writes the summary as indented JSON (two-space indent, one
// trailing newline) — byte for byte what encoding/json's Encoder with
// SetIndent("", "  ") produces, which the tests keep as the reference.
// The candidate and scenario rows, the bulk of any report, are appended
// straight to a buffer handed to w every flushAt bytes, between rows;
// the small optional blocks (plan, refinement, degradation, solver,
// sweep, artifact, trace, metrics) go through json.MarshalIndent.
// Summary field order, omitempty and the null-versus-[] rendering of nil
// and empty slices follow the struct tags exactly.
func (s *Summary) WriteJSON(w io.Writer) error {
	jw := &jsonWriter{w: w, b: make([]byte, 0, 8<<10)}
	jw.begin('{')
	if s.TraceID != "" {
		jw.key(1, "traceId")
		jw.str(s.TraceID)
	}
	jw.key(1, "model")
	jw.begin('{')
	jw.key(2, "components")
	jw.int(int64(s.Model.Components))
	jw.key(2, "connections")
	jw.int(int64(s.Model.Connections))
	jw.close(1, '}')

	jw.key(1, "candidates")
	if jw.array(s.Candidates == nil, len(s.Candidates)) {
		for i := range s.Candidates {
			c := &s.Candidates[i]
			jw.newline(2)
			jw.begin('{')
			jw.key(3, "component")
			jw.str(c.Component)
			jw.key(3, "fault")
			jw.str(c.Fault)
			jw.key(3, "likelihood")
			jw.str(c.Likelihood)
			jw.key(3, "sources")
			jw.strs(3, c.Sources)
			jw.close(2, '}')
		}
		jw.close(1, ']')
	}
	if len(s.Compromisable) > 0 {
		jw.key(1, "compromisable")
		jw.strs(1, s.Compromisable)
	}
	jw.key(1, "scenarios")
	if jw.array(s.Scenarios == nil, len(s.Scenarios)) {
		for i := range s.Scenarios {
			sc := &s.Scenarios[i]
			jw.newline(2)
			jw.begin('{')
			jw.key(3, "id")
			jw.str(sc.ID)
			jw.key(3, "activations")
			jw.strs(3, sc.Activations)
			if len(sc.Violated) > 0 {
				jw.key(3, "violated")
				jw.strs(3, sc.Violated)
			}
			jw.key(3, "likelihood")
			jw.str(sc.Likelihood)
			jw.key(3, "severity")
			jw.str(sc.Severity)
			jw.key(3, "risk")
			jw.str(sc.Risk)
			jw.key(3, "treatment")
			jw.str(sc.Treatment)
			jw.close(2, '}')
			jw.maybeFlush()
		}
		jw.close(1, ']')
	}
	if s.Plan != nil {
		jw.block("plan", s.Plan)
	}
	if s.Refinement != nil {
		jw.block("refinement", s.Refinement)
	}
	if len(s.Degradation) > 0 {
		jw.block("degradation", s.Degradation)
	}
	if s.Solver != nil {
		jw.block("solver", s.Solver)
	}
	if s.Sweep != nil {
		jw.block("sweep", s.Sweep)
	}
	if s.Artifact != nil {
		jw.block("artifact", s.Artifact)
	}
	if s.DurationMS != 0 {
		jw.key(1, "durationMs")
		jw.int(s.DurationMS)
	}
	if s.Trace != nil {
		jw.block("trace", s.Trace)
	}
	if s.Metrics != nil {
		jw.block("metrics", s.Metrics)
	}
	jw.close(0, '}')
	jw.b = append(jw.b, '\n')
	jw.flush()
	return jw.err
}

// flushAt is the buffered size past which the writer hands its buffer
// to the underlying io.Writer, checked between rows.
const flushAt = 64 << 10

// jsonWriter appends indented JSON to a buffer piecewise. Every object
// and array it opens is non-empty, so a member always starts on a fresh
// indented line; the first member of a container skips the comma via
// first. The first write error sticks and ends output.
type jsonWriter struct {
	w     io.Writer
	b     []byte
	first bool // next member is the first in its container
	err   error
}

func (jw *jsonWriter) flush() {
	if jw.err == nil {
		_, jw.err = jw.w.Write(jw.b)
	}
	jw.b = jw.b[:0]
}

func (jw *jsonWriter) maybeFlush() {
	if len(jw.b) >= flushAt {
		jw.flush()
	}
}

// begin opens a container.
func (jw *jsonWriter) begin(bracket byte) {
	jw.b = append(jw.b, bracket)
	jw.first = true
}

// indentRun is a member separator followed by the deepest indent the
// writer uses; newline and close slice it instead of looping.
const indentRun = ",\n                "

// newline ends the previous member (with a comma unless it was the
// first in its container) and indents to depth.
func (jw *jsonWriter) newline(depth int) {
	sep := indentRun[:2+2*depth]
	if jw.first {
		sep = sep[1:]
		jw.first = false
	}
	jw.b = append(jw.b, sep...)
}

// key starts an object member at depth.
func (jw *jsonWriter) key(depth int, name string) {
	jw.newline(depth)
	jw.b = append(jw.b, '"')
	jw.b = append(jw.b, name...)
	jw.b = append(jw.b, `": `...)
}

// array writes null, [] or the opening bracket of a non-empty array; it
// reports whether elements follow.
func (jw *jsonWriter) array(isNil bool, n int) bool {
	switch {
	case isNil:
		jw.b = append(jw.b, "null"...)
		return false
	case n == 0:
		jw.b = append(jw.b, "[]"...)
		return false
	}
	jw.begin('[')
	return true
}

// close ends a non-empty container whose closing bracket sits at depth.
func (jw *jsonWriter) close(depth int, bracket byte) {
	jw.b = append(jw.b, indentRun[1:2+2*depth]...)
	jw.b = append(jw.b, bracket)
	jw.first = false
}

func (jw *jsonWriter) int(n int64) {
	jw.b = strconv.AppendInt(jw.b, n, 10)
}

// str writes a JSON string. Strings of printable ASCII that encoding/json
// would not escape (no quote, backslash or HTML-sensitive <, >, &) are
// written as they are; anything else is encoded by json.Marshal, so
// control bytes, HTML escaping, U+2028/U+2029 and invalid UTF-8 render
// exactly as the Encoder renders them.
func (jw *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			jw.b = append(jw.b, b...)
			return
		}
	}
	jw.b = append(jw.b, '"')
	jw.b = append(jw.b, s...)
	jw.b = append(jw.b, '"')
}

// strs writes a string array whose members sit at depth+1.
func (jw *jsonWriter) strs(depth int, ss []string) {
	if !jw.array(ss == nil, len(ss)) {
		return
	}
	for _, s := range ss {
		jw.newline(depth + 1)
		jw.str(s)
	}
	jw.close(depth, ']')
}

// block writes a top-level member through json.MarshalIndent with the
// prefix of depth 1, which nests its output exactly as the Encoder's
// whole-document indentation would.
func (jw *jsonWriter) block(name string, v any) {
	jw.key(1, name)
	b, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil && jw.err == nil {
		jw.err = err
	}
	jw.b = append(jw.b, b...)
}
