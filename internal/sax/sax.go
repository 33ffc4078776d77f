// Package sax implements Piecewise Aggregate Approximation (PAA,
// Definition 6) and Symbolic Aggregate approXimation (SAX, Definition 7)
// following Lin et al. [26]. CABD's correlation score represents a
// candidate's INN window as a SAX word and counts how often that word
// occurs across the whole series (Corpus); the Luminol baseline uses
// SAX bitmaps.
package sax

import (
	"math"
	"strings"

	"cabd/internal/stats"
)

// PAA reduces xs to m segment means (Definition 6). When m >= len(xs) the
// input is returned copied (each point is its own segment). Segment
// boundaries use the fractional scheme so uneven divisions distribute
// points fairly.
func PAA(xs []float64, m int) []float64 {
	n := len(xs)
	if n == 0 || m <= 0 {
		return nil
	}
	if m >= n {
		out := make([]float64, n)
		copy(out, xs)
		return out
	}
	out := make([]float64, m)
	// Fractional PAA: point j contributes to segment floor(j*m/n).
	counts := make([]float64, m)
	for j, v := range xs {
		seg := j * m / n
		out[seg] += v
		counts[seg]++
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= counts[i]
		}
	}
	return out
}

// Breakpoints returns the a-1 standard normal quantiles that split the
// real line into a equiprobable regions, the canonical SAX breakpoints.
func Breakpoints(a int) []float64 {
	if a < 2 {
		return nil
	}
	bp := make([]float64, a-1)
	for i := 1; i < a; i++ {
		bp[i-1] = stats.NormalQuantile(float64(i) / float64(a))
	}
	return bp
}

// Symbolize maps already-normalized values to letters 'a', 'b', ... using
// the equiprobable Gaussian breakpoints for alphabet size a.
func Symbolize(xs []float64, a int) string {
	bp := Breakpoints(a)
	var b strings.Builder
	b.Grow(len(xs))
	for _, v := range xs {
		b.WriteByte(letter(v, bp))
	}
	return b.String()
}

// letter is the SAX symbol of one normalized value: 'a' plus the number
// of breakpoints it lies strictly above.
func letter(v float64, bp []float64) byte {
	idx := 0
	for idx < len(bp) && v > bp[idx] {
		idx++
	}
	return byte('a' + idx)
}

// Corpus counts the SAX words of one window length of one series: how
// many length-w windows (stride 1) share each word. Each window is
// standardized independently, following the standard SAX subsequence
// pipeline. NewCorpus builds it in one call; it is read-only afterwards,
// so any number of goroutines may query it.
type Corpus struct {
	ids    []int32 // word id of the window starting at each position
	counts []int32 // windows per word id
}

// laneWord is the longest word the four-window kernel encodes; longer
// words (more than 16 segments) take encode one window at a time.
const laneWord = 16

// lanes holds the words of four consecutive windows.
type lanes [4][laneWord]byte

// NewCorpus encodes every length-w window of xs as a word of m segments
// over the alphabet whose breakpoints are bp (Breakpoints(a)), and counts
// the windows sharing each word. Degenerate parameters (an empty or
// over-long window, m <= 0, fewer than 2 letters) give an empty corpus.
//
// When the a^size possible words number no more than the windows, a
// word's id is its base-a letter value and counts has one slot per
// possible word, so numbering a window is a few multiply-adds. Wider word
// spaces number the distinct words in first-seen order through a map,
// which costs one key per distinct word. Windows are encoded four at a
// time by encode4 while four remain and the kernel applies, the rest one
// at a time by encode.
func NewCorpus(xs []float64, w, m int, bp []float64) *Corpus {
	c := &Corpus{}
	if w <= 0 || w > len(xs) || m <= 0 || len(bp) == 0 {
		return c
	}
	size := min(m, w)
	a := len(bp) + 1
	c.ids = make([]int32, len(xs)-w+1)
	var index map[string]int32
	if slots := wordSpace(a, size, len(c.ids)); slots > 0 {
		c.counts = make([]int32, slots)
	} else {
		index = make(map[string]int32, min(len(c.ids), 64))
	}
	var ln lanes
	lo := 0
	if size < w && size <= laneWord {
		for ; lo+4 <= len(c.ids); lo += 4 {
			encode4(&ln, xs[lo:lo+w+3], w, size, bp)
			for k := range ln {
				c.ids[lo+k] = wordID(ln[k][:size], a, index)
			}
		}
	}
	var buf []byte
	if size <= laneWord {
		buf = ln[0][:size]
	} else {
		buf = make([]byte, size)
	}
	for ; lo < len(c.ids); lo++ {
		encode(buf, xs[lo:lo+w], bp)
		c.ids[lo] = wordID(buf, a, index)
	}
	if index != nil {
		c.counts = make([]int32, len(index))
	}
	for _, id := range c.ids {
		c.counts[id]++
	}
	return c
}

// Frequency returns the fraction of the corpus's windows whose SAX word
// equals the word of the window starting at xs[lo]; an empty corpus
// returns 0.
func (c *Corpus) Frequency(lo int) float64 {
	if len(c.ids) == 0 {
		return 0
	}
	return float64(c.counts[c.ids[lo]]) / float64(len(c.ids))
}

// wordSpace returns a^size, the number of possible words, when it is at
// most limit, and 0 when it is larger.
func wordSpace(a, size, limit int) int {
	slots := 1
	for range size {
		slots *= a
		if slots > limit {
			return 0
		}
	}
	return slots
}

// wordID numbers word: its base-a letter value when index is nil, else
// its first-seen position in index, which it joins if new.
func wordID(word []byte, a int, index map[string]int32) int32 {
	if index == nil {
		id := 0
		for _, b := range word {
			id = id*a + int(b-'a')
		}
		return int32(id)
	}
	id, ok := index[string(word)]
	if !ok {
		id = int32(len(index))
		index[string(word)] = id
	}
	return id
}

// encode writes the SAX word of win into buf, which holds min(m,
// len(win)) bytes for m segments. It repeats, expression for expression
// and in the same order, stats.Standardize, PAA and Symbolize, so the
// bytes equal Symbolize(PAA(stats.Standardize(win), m), a) — without the
// three intermediate slices. win must be non-empty.
//
//cabd:hotpath
func encode(buf []byte, win []float64, bp []float64) {
	n := len(win)
	// stats.Mean, then stats.Variance (which re-derives the same mean).
	var s float64
	for _, x := range win {
		s += x
	}
	mean := s / float64(n)
	var sd float64
	if n >= 2 {
		var ss float64
		for _, x := range win {
			d := x - mean
			ss += d * d
		}
		sd = math.Sqrt(ss / float64(n))
	}
	m := len(buf)
	if m >= n {
		// PAA copies: each point is its own segment.
		for j, x := range win {
			z := 0.0
			if sd != 0 {
				z = (x - mean) / sd
			}
			buf[j] = letter(z, bp)
		}
		return
	}
	// Fractional PAA: point j joins segment j*m/n, so segments are
	// contiguous runs summed in index order.
	seg, cnt := 0, 0
	var sum float64
	for j, x := range win {
		if k := j * m / n; k != seg {
			buf[seg] = letter(sum/float64(cnt), bp)
			seg, cnt, sum = k, 0, 0
		}
		z := 0.0
		if sd != 0 {
			z = (x - mean) / sd
		}
		sum += z
		cnt++
	}
	buf[seg] = letter(sum/float64(cnt), bp)
}

// encode4 writes the words of the four length-n windows starting at
// xs[0], xs[1], xs[2] and xs[3] into ln[0..3][:m], for 1 <= m < n and m <=
// laneWord. xs holds n+3 values. Each window runs encode's arithmetic in
// encode's order on its own accumulators, so every word is bit-identical
// to encode's; the four chains are independent, so their additions
// overlap instead of waiting on one another. The lanes are spelled out:
// a loop over lanes measured slower than one window at a time.
//
//cabd:hotpath
func encode4(ln *lanes, xs []float64, n, m int, bp []float64) {
	xs = xs[:n+3]
	var s0, s1, s2, s3 float64
	for j := 0; j < n; j++ {
		s0 += xs[j]
		s1 += xs[j+1]
		s2 += xs[j+2]
		s3 += xs[j+3]
	}
	fn := float64(n)
	mean0, mean1, mean2, mean3 := s0/fn, s1/fn, s2/fn, s3/fn
	var sd0, sd1, sd2, sd3 float64
	if n >= 2 {
		var ss0, ss1, ss2, ss3 float64
		for j := 0; j < n; j++ {
			d0 := xs[j] - mean0
			d1 := xs[j+1] - mean1
			d2 := xs[j+2] - mean2
			d3 := xs[j+3] - mean3
			ss0 += d0 * d0
			ss1 += d1 * d1
			ss2 += d2 * d2
			ss3 += d3 * d3
		}
		sd0, sd1, sd2, sd3 = math.Sqrt(ss0/fn), math.Sqrt(ss1/fn), math.Sqrt(ss2/fn), math.Sqrt(ss3/fn)
	}
	// Fractional PAA as in encode; the segment boundaries depend only on
	// n and m, so the four windows share them.
	seg, cnt := 0, 0
	var sum0, sum1, sum2, sum3 float64
	for j := 0; j < n; j++ {
		if k := j * m / n; k != seg {
			c := float64(cnt)
			ln[0][seg] = letter(sum0/c, bp)
			ln[1][seg] = letter(sum1/c, bp)
			ln[2][seg] = letter(sum2/c, bp)
			ln[3][seg] = letter(sum3/c, bp)
			seg, cnt = k, 0
			sum0, sum1, sum2, sum3 = 0, 0, 0, 0
		}
		z0, z1, z2, z3 := 0.0, 0.0, 0.0, 0.0
		if sd0 != 0 {
			z0 = (xs[j] - mean0) / sd0
		}
		if sd1 != 0 {
			z1 = (xs[j+1] - mean1) / sd1
		}
		if sd2 != 0 {
			z2 = (xs[j+2] - mean2) / sd2
		}
		if sd3 != 0 {
			z3 = (xs[j+3] - mean3) / sd3
		}
		sum0 += z0
		sum1 += z1
		sum2 += z2
		sum3 += z3
		cnt++
	}
	c := float64(cnt)
	ln[0][seg] = letter(sum0/c, bp)
	ln[1][seg] = letter(sum1/c, bp)
	ln[2][seg] = letter(sum2/c, bp)
	ln[3][seg] = letter(sum3/c, bp)
}
