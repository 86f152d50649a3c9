package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"hardharvest/internal/sim"
)

// Prometheus text exposition format (version 0.0.4) writer. Hand-rolled on
// purpose: the format is a dozen lines of escaping rules, and the repo's
// no-new-dependencies rule beats importing a client library to print
// `name{label="value"} 42`.
//
// Output is deterministic for deterministic inputs — callers emit metrics
// in a fixed order and the writer adds nothing of its own (no timestamps,
// no process metrics), so two scrapes of identical simulator state are
// byte-identical.

// PromLabel is one label pair on a sample.
type PromLabel struct {
	Key   string
	Value string
}

// PromWriter accumulates one exposition document. Errors are sticky:
// check Flush. Names, labels and numbers go straight to the buffered
// writer, numbers through reused scratch buffers, so rendering a sample
// builds no strings.
type PromWriter struct {
	w   *bufio.Writer
	err error
	// num and le are strconv.Append* scratch: a sample's value, and a
	// histogram bucket's bound.
	num, le []byte
}

// NewPromWriter returns a writer targeting w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

func (p *PromWriter) write(s string) {
	if p.err == nil {
		_, p.err = p.w.WriteString(s)
	}
}

func (p *PromWriter) writeByte(c byte) {
	if p.err == nil {
		p.err = p.w.WriteByte(c)
	}
}

func (p *PromWriter) writeBytes(b []byte) {
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

// writeLabelValue writes v with the exposition format's label-value
// escaping (backslash, double quote, newline).
func (p *PromWriter) writeLabelValue(v string) {
	for {
		i := strings.IndexAny(v, `\"`+"\n")
		if i < 0 {
			p.write(v)
			return
		}
		p.write(v[:i])
		switch v[i] {
		case '\\':
			p.write(`\\`)
		case '"':
			p.write(`\"`)
		default:
			p.write(`\n`)
		}
		v = v[i+1:]
	}
}

// Head writes the # HELP and # TYPE comments for a metric family. typ is
// one of "counter", "gauge", "histogram".
func (p *PromWriter) Head(name, help, typ string) {
	p.write("# HELP ")
	p.write(name)
	p.writeByte(' ')
	p.write(help)
	p.write("\n# TYPE ")
	p.write(name)
	p.writeByte(' ')
	p.write(typ)
	p.writeByte('\n')
}

// sampleName writes name+suffix and the label set up to the value. The
// labels are followed by an le label when le is non-nil (histogram buckets).
func (p *PromWriter) sampleName(name, suffix string, labels []PromLabel, le []byte) {
	p.write(name)
	p.write(suffix)
	if len(labels) > 0 || le != nil {
		p.writeByte('{')
		for i, l := range labels {
			if i > 0 {
				p.writeByte(',')
			}
			p.write(l.Key)
			p.write(`="`)
			p.writeLabelValue(l.Value)
			p.writeByte('"')
		}
		if le != nil {
			if len(labels) > 0 {
				p.writeByte(',')
			}
			p.write(`le="`)
			p.writeBytes(le)
			p.writeByte('"')
		}
		p.writeByte('}')
	}
	p.writeByte(' ')
}

func (p *PromWriter) uintSample(name, suffix string, v uint64, labels []PromLabel, le []byte) {
	p.sampleName(name, suffix, labels, le)
	p.num = strconv.AppendUint(p.num[:0], v, 10)
	p.writeBytes(p.num)
	p.writeByte('\n')
}

func (p *PromWriter) floatSample(name, suffix string, v float64, labels []PromLabel) {
	p.sampleName(name, suffix, labels, nil)
	p.num = strconv.AppendFloat(p.num[:0], v, 'g', -1, 64)
	p.writeBytes(p.num)
	p.writeByte('\n')
}

// Uint writes one sample with an integer value.
func (p *PromWriter) Uint(name string, v uint64, labels ...PromLabel) {
	p.uintSample(name, "", v, labels, nil)
}

// Float writes one sample with a float value (shortest round-trip form).
func (p *PromWriter) Float(name string, v float64, labels ...PromLabel) {
	p.floatSample(name, "", v, labels)
}

// Histogram writes h as a native Prometheus histogram family: cumulative
// bucket counts at each bound (converted to seconds in the `le` label), the
// mandatory +Inf bucket, and the _sum/_count samples. bounds must be
// ascending; extra labels are applied to every sample. Server-side quantile
// queries (histogram_quantile) carry the histogram's ~3% bucket
// quantization plus the coarseness of bounds.
func (p *PromWriter) Histogram(name, help string, h *LatencyHist, bounds []sim.Duration, labels ...PromLabel) {
	p.Head(name, help, "histogram")
	for i, cum := range h.CumulativeBuckets(bounds) {
		p.le = strconv.AppendFloat(p.le[:0], bounds[i].Seconds(), 'g', -1, 64)
		p.uintSample(name, "_bucket", cum, labels, p.le)
	}
	p.le = append(p.le[:0], "+Inf"...)
	p.uintSample(name, "_bucket", h.Count(), labels, p.le)
	p.floatSample(name, "_sum", h.Sum().Seconds(), labels)
	p.uintSample(name, "_count", h.Count(), labels, nil)
}

// Flush writes buffered output and reports the first error encountered.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// DefaultLatencyBuckets is the exporter's bucket ladder for request
// latencies: a 1-2.5-5 decade ladder from 1µs to 2.5s, wide enough for
// every service profile's SLO range at both tails. Treat as read-only.
var DefaultLatencyBuckets = []sim.Duration{
	1 * sim.Microsecond, 2500 * sim.Nanosecond, 5 * sim.Microsecond,
	10 * sim.Microsecond, 25 * sim.Microsecond, 50 * sim.Microsecond,
	100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond,
	1 * sim.Millisecond, 2500 * sim.Microsecond, 5 * sim.Millisecond,
	10 * sim.Millisecond, 25 * sim.Millisecond, 50 * sim.Millisecond,
	100 * sim.Millisecond, 250 * sim.Millisecond, 500 * sim.Millisecond,
	1 * sim.Second, 2500 * sim.Millisecond,
}
