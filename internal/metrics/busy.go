package metrics

import (
	"cmp"
	"slices"
	"time"
)

// interval is a half-open stretch of virtual time [start, end).
type interval struct{ start, end time.Duration }

// catBusy is one category's busy time: sorted, disjoint intervals with gaps
// between them.
type catBusy struct {
	cat Category
	ivs []interval
}

// Busy is the time each category was active, kept as the union of its spans
// rather than the spans themselves: everything Breakdown needs and nothing
// else. Spans that arrive in time order, as a run records them, extend a
// category's last interval or append one, in amortised O(1); an earlier one
// is merged in after a binary search. The zero value is empty and ready.
type Busy struct {
	cats []catBusy
}

// Add marks [start, end) busy for cat. An empty or inverted interval adds
// nothing.
func (b *Busy) Add(cat Category, start, end time.Duration) {
	if end <= start {
		return
	}
	c := &b.cats[b.index(cat)]
	ivs := c.ivs
	n := len(ivs)
	switch {
	case n == 0 || start > ivs[n-1].end:
		c.ivs = append(ivs, interval{start, end})
		return
	case start >= ivs[n-1].start:
		ivs[n-1].end = max(ivs[n-1].end, end)
		return
	}
	// ivs[i:j] are the intervals [start, end) touches or overlaps.
	i, _ := slices.BinarySearchFunc(ivs, start, func(iv interval, t time.Duration) int {
		return cmp.Compare(iv.end, t)
	})
	j, _ := slices.BinarySearchFunc(ivs[i:], end+1, func(iv interval, t time.Duration) int {
		return cmp.Compare(iv.start, t)
	})
	j += i
	if i == j {
		c.ivs = slices.Insert(ivs, i, interval{start, end})
		return
	}
	ivs[i] = interval{min(start, ivs[i].start), max(end, ivs[j-1].end)}
	c.ivs = slices.Delete(ivs, i+1, j)
}

// index returns the position of cat's list in b.cats, adding an empty list
// on first use.
func (b *Busy) index(cat Category) int {
	for i := range b.cats {
		if b.cats[i].cat == cat {
			return i
		}
	}
	b.cats = append(b.cats, catBusy{cat: cat})
	return len(b.cats) - 1
}

// Breakdown attributes every instant of [t0, t1] to exactly one category:
// the highest-priority category busy at that instant, or CatOther when none
// is. The result's values sum to t1-t0, and it holds only categories with
// time attributed. A category listed twice in priority ranks by its last
// position.
//
// It walks priority in rank order and merges each category's intervals,
// clipped to the window, into the union already attributed; the time the
// merge adds is the category's. The cost is linear in the intervals for
// each category in priority, and nothing is sorted.
func (b *Busy) Breakdown(t0, t1 time.Duration, priority []Category) map[Category]time.Duration {
	out := make(map[Category]time.Duration, len(priority)+1)
	if t1 <= t0 {
		return out
	}
	n := 0
	for i := range b.cats {
		n += len(b.cats[i].ivs)
	}
	// The union and the merge's output ping-pong through one buffer.
	buf := make([]interval, 2*n)
	covered, next := buf[:0:n], buf[n:n:2*n]
	var total time.Duration
	for r, cat := range priority {
		if slices.Contains(priority[r+1:], cat) {
			continue
		}
		ivs := b.clip(cat, t0, t1)
		if len(ivs) == 0 {
			continue
		}
		var grown time.Duration
		next, grown = mergeUnion(next[:0], covered, ivs, t0, t1)
		covered, next = next, covered
		if grown > total {
			out[cat] += grown - total
			total = grown
		}
	}
	if rest := t1 - t0 - total; rest > 0 {
		out[CatOther] += rest
	}
	return out
}

// clip returns cat's intervals that reach into [t0, t1); the first and last
// may extend past it.
func (b *Busy) clip(cat Category, t0, t1 time.Duration) []interval {
	for i := range b.cats {
		if b.cats[i].cat != cat {
			continue
		}
		ivs := b.cats[i].ivs
		lo, _ := slices.BinarySearchFunc(ivs, t0+1, func(iv interval, t time.Duration) int {
			return cmp.Compare(iv.end, t)
		})
		hi, _ := slices.BinarySearchFunc(ivs, t1, func(iv interval, t time.Duration) int {
			return cmp.Compare(iv.start, t)
		})
		if lo < hi {
			return ivs[lo:hi]
		}
	}
	return nil
}

// mergeUnion appends the union of a and b, each sorted and disjoint, to dst,
// with every interval clipped to [t0, t1), and returns it with its length.
func mergeUnion(dst, a, b []interval, t0, t1 time.Duration) ([]interval, time.Duration) {
	var total time.Duration
	for len(a) > 0 || len(b) > 0 {
		var iv interval
		if len(b) == 0 || len(a) > 0 && a[0].start <= b[0].start {
			iv, a = a[0], a[1:]
		} else {
			iv, b = b[0], b[1:]
		}
		iv.start, iv.end = max(iv.start, t0), min(iv.end, t1)
		if k := len(dst) - 1; k >= 0 && iv.start <= dst[k].end {
			if iv.end > dst[k].end {
				total += iv.end - dst[k].end
				dst[k].end = iv.end
			}
			continue
		}
		dst = append(dst, iv)
		total += iv.end - iv.start
	}
	return dst, total
}

// Breakdown attributes the spans' time over [t0, t1] as Busy.Breakdown
// does, as if each span had been added to one Busy. Inverted spans add
// nothing.
func Breakdown(spans []Span, t0, t1 time.Duration, priority []Category) map[Category]time.Duration {
	var b Busy
	b.reserve(spans)
	for i := range spans {
		b.Add(spans[i].Cat, spans[i].Start, spans[i].End)
	}
	return b.Breakdown(t0, t1, priority)
}

// reserve gives each category among spans room for all of its spans, carved
// from one array, so adding them allocates nothing more. b must be empty.
func (b *Busy) reserve(spans []Span) {
	// Room for every category there is, so the lists rarely regrow.
	b.cats = make([]catBusy, 0, 16)
	counts := make([]int, 0, 16)
	for i := range spans {
		k := b.index(spans[i].Cat)
		if k == len(counts) {
			counts = append(counts, 0)
		}
		counts[k]++
	}
	buf := make([]interval, len(spans))
	for k, n := range counts {
		b.cats[k].ivs, buf = buf[:0:n], buf[n:]
	}
}
