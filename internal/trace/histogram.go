package trace

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// holds durations in [2^(i-1), 2^i) microseconds, so 48 buckets cover
// sub-microsecond up to hours.
const histBuckets = 48

// Histogram is a lock-free log-scale latency histogram: the query hot
// path pays a single atomic increment per bucket, count and sum.
// Percentiles resolve to a bucket's upper bound, which is exact enough
// for the p50/p95/p99 service metrics (one power of two of
// resolution). The node and the router keep their latency in one, and
// PromWriter.Histogram renders it. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // microseconds
	max     atomic.Uint64 // microseconds
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	i := bits.Len64(us)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		prev := h.max.Load()
		if us <= prev || h.max.CompareAndSwap(prev, us) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumUs returns the summed samples, in microseconds.
func (h *Histogram) SumUs() uint64 { return h.sum.Load() }

// MaxUs returns the largest sample, in microseconds.
func (h *Histogram) MaxUs() uint64 { return h.max.Load() }

// Percentile returns the upper bound of the bucket holding the p-th
// percentile observation (0 < p <= 1), in microseconds. The
// observation is the nearest-rank one: the ceil(p*count)-th smallest.
func (h *Histogram) Percentile(p float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 1
			}
			return uint64(1) << i
		}
	}
	return h.max.Load()
}

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter builds one Prometheus text-exposition document (version
// 0.0.4) with no client library. Label sets are rendered pairs (see
// PromLabel), or empty for none. Histogram bucket i holds integer
// microsecond durations in [2^(i-1), 2^i), so its Prometheus inclusive
// upper bound is 2^i - 1 µs. The zero value is ready to use.
type PromWriter struct {
	b strings.Builder
}

// String returns the document written so far.
func (p *PromWriter) String() string { return p.b.String() }

// PromLabel renders one label pair.
func PromLabel(key, value string) string { return key + "=" + strconv.Quote(value) }

// promFloat renders a sample value the way Prometheus expects.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promBound is histogram bucket i's inclusive upper bound in seconds.
func promBound(i int) float64 {
	return float64(uint64(1)<<uint(i)-1) / 1e6
}

// Meta writes one family's HELP and TYPE lines.
func (p *PromWriter) Meta(name, typ, help string) {
	p.b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

// Sample writes one sample line.
func (p *PromWriter) Sample(name, labels string, v float64) { p.line(name, labels, promFloat(v)) }

// line writes one sample line with a rendered value.
func (p *PromWriter) line(name, labels, value string) {
	p.b.WriteString(name)
	if labels != "" {
		p.b.WriteString("{" + labels + "}")
	}
	p.b.WriteString(" " + value + "\n")
}

// Counter writes a single-sample counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Meta(name, "counter", help)
	p.Sample(name, "", v)
}

// Gauge writes a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Meta(name, "gauge", help)
	p.Sample(name, "", v)
}

// Histogram writes the sample lines (buckets, sum, count) of one
// histogram series; the caller writes the family's Meta once.
func (p *PromWriter) Histogram(name, labels string, h *Histogram) {
	var counts [histBuckets]uint64
	last := 0
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			last = i
		}
	}
	count := h.count.Load()
	sum := h.sum.Load()
	le := "le="
	if labels != "" {
		le = labels + ",le="
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += counts[i]
		p.line(name+"_bucket", le+strconv.Quote(promFloat(promBound(i))), strconv.FormatUint(cum, 10))
	}
	// count is read after the buckets; an in-flight Observe may have
	// bumped a bucket but not yet the count. Clamp so the +Inf bucket
	// (which must equal _count) never dips below the cumulative series.
	if count < cum {
		count = cum
	}
	p.line(name+"_bucket", le+`"+Inf"`, strconv.FormatUint(count, 10))
	p.Sample(name+"_sum", labels, float64(sum)/1e6)
	p.line(name+"_count", labels, strconv.FormatUint(count, 10))
}
