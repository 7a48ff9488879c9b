// Package workload models what a real IoT fleet throws at the serving
// plane: temporal arrival patterns (Pattern), servegen-style multi-period
// intensity curves — diurnal sinusoids, bursts, ramps, spikes and sums of
// them — that the cluster runtime turns into per-device pacing.
//
// The package is pure: no clocks, no goroutines, no transport — every
// Pattern is a deterministic function of elapsed time, so the same
// configuration always describes the same workload. The cluster runtime
// (internal/cluster.RunFleet) owns the device cohorts, the goroutines,
// sockets and fault injection.
package workload

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Pattern is a time-varying arrival intensity: Intensity(t) returns the
// relative arrival-rate multiplier at elapsed run time t. 1 means the
// cohort's base rate, 2 twice it, 0 (or less) an idle lull — the runtime
// clamps non-positive intensities to a small floor so a closed-loop run
// always makes progress. Implementations must be pure functions of t
// (no mutable state): the runtime calls Intensity concurrently from every
// device goroutine.
type Pattern interface {
	// Name identifies the pattern in stats and flags.
	Name() string
	// Intensity returns the relative rate multiplier at elapsed time t.
	Intensity(t time.Duration) float64
}

// MinIntensity is the floor the runtime clamps non-positive intensities
// to when converting intensity into inter-arrival gaps, bounding how long
// a lull can stall a closed-loop device (gap ≤ BaseInterval/MinIntensity).
const MinIntensity = 0.01

// Gap converts an intensity sample into the inter-arrival gap a device
// waits before its next dispatch: base divided by the clamped intensity.
// A base of 0 disables pacing (the gap is always 0) but the pattern is
// still sampled, so generator overhead is the same paced or not — which
// is what the workload-overhead benchmark measures.
func Gap(p Pattern, t time.Duration, base time.Duration) time.Duration {
	if p == nil {
		return 0
	}
	iv := p.Intensity(t)
	if base <= 0 {
		return 0
	}
	if iv < MinIntensity {
		iv = MinIntensity
	}
	return time.Duration(float64(base) / iv)
}

// Uniform is a flat pattern: the same intensity at every instant. level
// ≤ 0 is treated as 1 by the runtime's clamping, but Validate rejects it
// up front where possible.
func Uniform(level float64) Pattern { return uniform{level} }

type uniform struct{ level float64 }

func (u uniform) Name() string                    { return fmt.Sprintf("uniform(%g)", u.level) }
func (u uniform) Intensity(time.Duration) float64 { return u.level }

// Diurnal is the fleet-scale day/night cycle: a raised cosine that starts
// at base, peaks at peak half a period in, and returns to base — one
// "day" per period. IoT fleets are overwhelmingly diurnal; this is the
// first-order model of their load curve.
func Diurnal(period time.Duration, base, peak float64) Pattern {
	return diurnal{period, base, peak}
}

type diurnal struct {
	period     time.Duration
	base, peak float64
}

func (d diurnal) Name() string {
	return fmt.Sprintf("diurnal(%v,%g→%g)", d.period, d.base, d.peak)
}

func (d diurnal) Intensity(t time.Duration) float64 {
	if d.period <= 0 {
		return d.base
	}
	phase := 2 * math.Pi * float64(t%d.period) / float64(d.period)
	return d.base + (d.peak-d.base)*(1-math.Cos(phase))/2
}

// Burst is a square wave: intensity peak for the first duty fraction of
// every period, base for the rest — the bursty sensor fleet that reports
// in synchronized waves.
func Burst(period time.Duration, duty, base, peak float64) Pattern {
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	return burst{period, duty, base, peak}
}

type burst struct {
	period     time.Duration
	duty       float64
	base, peak float64
}

func (b burst) Name() string {
	return fmt.Sprintf("burst(%v,%.0f%%,%g→%g)", b.period, b.duty*100, b.base, b.peak)
}

func (b burst) Intensity(t time.Duration) float64 {
	if b.period <= 0 {
		return b.base
	}
	if float64(t%b.period) < b.duty*float64(b.period) {
		return b.peak
	}
	return b.base
}

// Ramp rises (or falls) linearly from from to to over d, then holds to —
// the onboarding curve of a fleet being rolled out, or a drain.
func Ramp(d time.Duration, from, to float64) Pattern { return ramp{d, from, to} }

type ramp struct {
	d        time.Duration
	from, to float64
}

func (r ramp) Name() string { return fmt.Sprintf("ramp(%v,%g→%g)", r.d, r.from, r.to) }

func (r ramp) Intensity(t time.Duration) float64 {
	if r.d <= 0 || t >= r.d {
		return r.to
	}
	frac := float64(t) / float64(r.d)
	return r.from + (r.to-r.from)*frac
}

// Spike holds base everywhere except [at, at+width), where intensity is
// base*mult — the flash crowd a failover scenario is killed under.
func Spike(at, width time.Duration, base, mult float64) Pattern {
	return spike{at, width, base, mult}
}

type spike struct {
	at, width time.Duration
	base      float64
	mult      float64
}

func (s spike) Name() string {
	return fmt.Sprintf("spike(@%v+%v,%g×%g)", s.at, s.width, s.base, s.mult)
}

func (s spike) Intensity(t time.Duration) float64 {
	if t >= s.at && t < s.at+s.width {
		return s.base * s.mult
	}
	return s.base
}

// Sum composes multi-period patterns additively: the fleet whose load is a
// slow diurnal swell with fast bursts riding on top is
// Sum(Diurnal(...), Burst(...)).
func Sum(ps ...Pattern) Pattern { return sum(ps) }

type sum []Pattern

func (s sum) Name() string {
	names := make([]string, len(s))
	for i, p := range s {
		names[i] = p.Name()
	}
	return "sum(" + strings.Join(names, "+") + ")"
}

func (s sum) Intensity(t time.Duration) float64 {
	var total float64
	for _, p := range s {
		total += p.Intensity(t)
	}
	return total
}
