package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed drifts by
// a third over minutes, for every kind of request alike (README.md,
// "Steadiness"): no statistic taken inside one run removes that. So the
// harness times a yardstick beside the requests — a fixed piece of work
// that depends on nothing in this repository, tokenising a fixed XML text
// with the standard library's encoding/xml (allocating, branchy and
// memory-bound like the program, and as sensitive to the host's state) —
// and reports every timing at the yardstick's reference speed:
// measured × yardstickRef ÷ the yardstick's time beside it.
type yardstick struct {
	text     []byte
	readings []time.Duration
}

// yardstickRef is what one reading takes on the reference box when
// nothing else runs there; it only fixes the scale of the reported
// timings.
const yardstickRef = 1400 * time.Microsecond

func newYardstick() *yardstick {
	// The text is the same in every run, whatever the seed.
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString("<root>")
	for i := 0; b.Len() < 48<<10; i++ {
		fmt.Fprintf(&b, `<item id="i%d"><name>thing %d</name><price cur="x">%d.50</price><note>some words here %d</note></item>`,
			i, rng.Intn(1000), rng.Intn(100), i)
	}
	b.WriteString("</root>")
	return &yardstick{text: b.Bytes()}
}

// read times one pass over the text.
func (y *yardstick) read() time.Duration {
	start := time.Now()
	dec := xml.NewDecoder(bytes.NewReader(y.text))
	for {
		if _, err := dec.Token(); err == io.EOF {
			break
		} else if err != nil {
			panic("yardstick text is not XML: " + err.Error())
		}
	}
	r := time.Since(start)
	y.readings = append(y.readings, r)
	return r
}

// best is the fastest of n readings.
func (y *yardstick) best(n int) time.Duration {
	b := y.read()
	for i := 1; i < n; i++ {
		b = min(b, y.read())
	}
	return b
}

// toRef is the factor that takes a timing measured between two readings
// to the reference speed. It uses the faster of the two: a reading can
// only be held up, never hurried.
func toRef(before, after time.Duration) float64 {
	return float64(yardstickRef) / float64(min(before, after))
}

// refClock times a stretch of work that has no requests to read the
// yardstick between (a set-up): it is cut into laps, each put at the
// reference speed by the readings before and after it.
type refClock struct {
	yard   *yardstick
	before time.Duration
	start  time.Time
	total  float64 // seconds at the reference speed
}

func startRefClock(y *yardstick) *refClock {
	return &refClock{yard: y, before: y.best(3), start: time.Now()}
}

// lap closes the current lap and returns the total so far.
func (c *refClock) lap() float64 {
	took := time.Since(c.start).Seconds()
	after := c.yard.best(3)
	c.total += took * toRef(c.before, after)
	c.before, c.start = after, time.Now()
	return c.total
}

// medianMs is the median reading of the run so far, in ms: the speed the
// host ran at.
func (y *yardstick) medianMs() float64 {
	v := make([]float64, len(y.readings))
	for i, r := range y.readings {
		v[i] = ms(r)
	}
	return median(v)
}
