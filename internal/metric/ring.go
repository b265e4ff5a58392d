package metric

// Ring is a fixed-capacity buffer of the most recent values: the one
// bounded store under every observation layer (every Series — the
// telemetry registry's and the timeline figures' — the audit journal
// and the flight recorder's trace archive). A Ring allocates its
// backing array once and then writing is free of allocation — the
// steady-state scrape path is proven zero-alloc by pardlint's hotalloc
// analyzer and held dynamically by benchgate. When full, a write
// displaces the oldest value and counts it in Dropped, so exports can
// surface truncation honestly.
type Ring[T any] struct {
	buf     []T
	head    int // index of the oldest value
	n       int // live values, <= len(buf)
	dropped uint64
}

// NewRing returns a ring holding at most capacity values. Capacity is
// clamped to at least 1 so a write is always legal.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	//pardlint:ignore hotalloc constructor: one backing array per ring, allocated once
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, displacing the oldest value when full.
func (r *Ring[T]) Push(v T) { *r.Next() = v }

// Next makes room for one value — displacing the oldest when full —
// and returns the slot to fill in place, so a large value is written
// once instead of copied through an argument. The slot still holds
// whatever it held before; the caller overwrites all of it.
func (r *Ring[T]) Next() *T {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	if r.n < len(r.buf) {
		r.n++
	} else {
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.dropped++
	}
	return &r.buf[i]
}

// Len returns the number of live values.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Dropped returns how many values have been displaced.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// At returns the i-th live value, oldest first. It panics when i is
// out of [0, Len()).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("metric: ring index out of range")
	}
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

// Last returns the most recent value; ok is false when empty.
func (r *Ring[T]) Last() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.At(r.n - 1), true
}

// AppendTo appends every live value onto dst, oldest first, and
// returns the extended slice.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if end := r.head + r.n; end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head+r.n-len(r.buf)]...)
}
