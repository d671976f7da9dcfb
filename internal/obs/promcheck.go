package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels []Label
	value  float64
	line   int
}

// CheckExposition validates a Prometheus text-format payload the hard
// way: every line must lex (name charset, label-name charset, label
// escaping, float values), every sample must follow its family's TYPE
// line, and every histogram family must have per-label-set bucket
// ladders that are monotone in le with an explicit +Inf bucket whose
// value equals the family's _count. Tests run every /metrics body
// through it so the exposition can never drift into something a
// scraper would reject.
func CheckExposition(data []byte) error {
	_, err := ParseSamples(data)
	return err
}

// ParseSamples validates a payload as CheckExposition does and returns
// its sample values keyed by series: the sample name followed by its
// labels as exposed, e.g. vcached_requests_total{endpoint="simulate"}.
func ParseSamples(data []byte) (map[string]float64, error) {
	types := map[string]string{} // family -> type
	var samples []promSample
	for i, raw := range strings.Split(string(data), "\n") {
		line := i + 1
		s := strings.TrimRight(raw, " ")
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "#") {
			if err := checkComment(s, line, types); err != nil {
				return nil, err
			}
			continue
		}
		ps, err := parseSample(s, line)
		if err != nil {
			return nil, err
		}
		samples = append(samples, ps)
	}
	for _, ps := range samples {
		base := histBase(ps.name, types)
		family := ps.name
		if base != "" {
			family = base
		}
		if _, ok := types[family]; !ok {
			return nil, fmt.Errorf("prom: line %d: sample %s has no preceding # TYPE line", ps.line, ps.name)
		}
	}
	if err := checkHistograms(samples, types); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, ps := range samples {
		out[ps.name+labelString(ps.labels)] = ps.value
	}
	return out, nil
}

func checkComment(s string, line int, types map[string]string) error {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("prom: line %d: malformed TYPE comment", line)
		}
		name, typ := fields[2], fields[3]
		if !nameRe.MatchString(name) {
			return fmt.Errorf("prom: line %d: invalid metric name %q in TYPE", line, name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("prom: line %d: unknown metric type %q", line, typ)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("prom: line %d: duplicate TYPE for %s", line, name)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("prom: line %d: malformed HELP comment", line)
		}
		if !nameRe.MatchString(fields[2]) {
			return fmt.Errorf("prom: line %d: invalid metric name %q in HELP", line, fields[2])
		}
	}
	return nil
}

// parseSample lexes one sample line: name[{labels}] value [timestamp].
func parseSample(s string, line int) (promSample, error) {
	ps := promSample{line: line}
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' {
		i++
	}
	ps.name = s[:i]
	if !nameRe.MatchString(ps.name) {
		return ps, fmt.Errorf("prom: line %d: invalid metric name %q", line, ps.name)
	}
	rest := s[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		ps.labels, rest, err = parseLabels(rest, line)
		if err != nil {
			return ps, err
		}
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return ps, fmt.Errorf("prom: line %d: want 'value [timestamp]' after metric, got %q", line, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return ps, fmt.Errorf("prom: line %d: invalid value %q: %v", line, fields[0], err)
	}
	ps.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return ps, fmt.Errorf("prom: line %d: invalid timestamp %q", line, fields[1])
		}
	}
	return ps, nil
}

// parseLabels consumes a {name="value",...} block, validating label
// names and escape sequences, and returns the remainder of the line.
func parseLabels(s string, line int) ([]Label, string, error) {
	var labels []Label
	i := 1 // past '{'
	for {
		for i < len(s) && s[i] == ',' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return nil, "", fmt.Errorf("prom: line %d: unterminated label block", line)
		}
		name := s[i:j]
		if !labelRe.MatchString(name) {
			return nil, "", fmt.Errorf("prom: line %d: invalid label name %q", line, name)
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return nil, "", fmt.Errorf("prom: line %d: label %s value not quoted", line, name)
		}
		val, next, err := parseQuoted(s[j+1:], line)
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, Label{Name: name, Value: val})
		i = len(s) - len(next)
	}
}

// parseQuoted consumes a quoted label value with \\, \" and \n as the
// only legal escapes.
func parseQuoted(s string, line int) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("prom: line %d: dangling escape in label value", line)
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("prom: line %d: illegal escape \\%c in label value", line, s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("prom: line %d: unterminated label value", line)
}

// histBase maps a histogram series name (_bucket/_sum/_count) to its
// family name, "" when the name is not a histogram series.
func histBase(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// histKey identifies one histogram sample: family plus its labels
// minus le.
func histKey(base string, labels []Label) string {
	parts := []string{base}
	for _, l := range labels {
		if l.Name != "le" {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	return strings.Join(parts, "\x00")
}

type histLadder struct {
	base    string
	buckets map[float64]float64 // le -> cumulative count
	sum     *float64
	count   *float64
	firstAt int
}

// checkHistograms verifies every histogram family's bucket ladders.
func checkHistograms(samples []promSample, types map[string]string) error {
	ladders := map[string]*histLadder{}
	for _, ps := range samples {
		base := histBase(ps.name, types)
		if base == "" {
			if types[ps.name] == "histogram" {
				return fmt.Errorf("prom: line %d: %s typed histogram but emitted as a plain sample", ps.line, ps.name)
			}
			continue
		}
		key := histKey(base, ps.labels)
		l := ladders[key]
		if l == nil {
			l = &histLadder{base: base, buckets: map[float64]float64{}, firstAt: ps.line}
			ladders[key] = l
		}
		switch {
		case strings.HasSuffix(ps.name, "_bucket"):
			le, ok := leValue(ps.labels)
			if !ok {
				return fmt.Errorf("prom: line %d: %s bucket without a valid le label", ps.line, ps.name)
			}
			if _, dup := l.buckets[le]; dup {
				return fmt.Errorf("prom: line %d: duplicate le=%v bucket for %s", ps.line, le, base)
			}
			l.buckets[le] = ps.value
		case strings.HasSuffix(ps.name, "_sum"):
			v := ps.value
			l.sum = &v
		case strings.HasSuffix(ps.name, "_count"):
			v := ps.value
			l.count = &v
		}
	}
	for _, l := range ladders {
		if err := l.check(); err != nil {
			return err
		}
	}
	return nil
}

func leValue(labels []Label) (float64, bool) {
	for _, l := range labels {
		if l.Name != "le" {
			continue
		}
		if l.Value == "+Inf" {
			return math.Inf(1), true
		}
		v, err := strconv.ParseFloat(l.Value, 64)
		return v, err == nil
	}
	return 0, false
}

func (l *histLadder) check() error {
	if len(l.buckets) == 0 {
		return fmt.Errorf("prom: histogram %s (near line %d) has no buckets", l.base, l.firstAt)
	}
	inf, ok := l.buckets[math.Inf(1)]
	if !ok {
		return fmt.Errorf("prom: histogram %s (near line %d) is missing the +Inf bucket", l.base, l.firstAt)
	}
	les := make([]float64, 0, len(l.buckets))
	for le := range l.buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	prev := 0.0
	for _, le := range les {
		if l.buckets[le] < prev {
			return fmt.Errorf("prom: histogram %s: bucket le=%v count %v below previous %v — ladder not cumulative",
				l.base, le, l.buckets[le], prev)
		}
		prev = l.buckets[le]
	}
	if l.count == nil {
		return fmt.Errorf("prom: histogram %s is missing its _count series", l.base)
	}
	if l.sum == nil {
		return fmt.Errorf("prom: histogram %s is missing its _sum series", l.base)
	}
	if *l.count != inf {
		return fmt.Errorf("prom: histogram %s: _count %v != +Inf bucket %v", l.base, *l.count, inf)
	}
	return nil
}
