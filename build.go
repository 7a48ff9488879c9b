package repro

import (
	"context"

	"repro/internal/hec"
	"repro/internal/nn"
)

// QuantMode selects the precision tier the constrained-hardware models are
// compressed to before deployment (see WithQuantMode).
type QuantMode = nn.QuantMode

// Re-exported quantization modes for callers importing only this package.
const (
	// QuantFP16 is the paper's compression step: IEEE binary16 weights,
	// bit-identical verdicts in practice (pinned by test).
	QuantFP16 = nn.QuantFP16
	// QuantInt8 stores weight matrices as int8 codes with per-row
	// power-of-two scales — 8× smaller than FP64, with a documented
	// relative error budget of 2⁻⁷ per weight.
	QuantInt8 = nn.QuantInt8
)

// Profile selects the scale of a build.
type Profile int

// The two build profiles.
const (
	// ProfileFull is the paper-faithful scale used by the benchmark
	// harness: full splits, full epochs (DefaultUnivariateOptions /
	// DefaultMultivariateOptions).
	ProfileFull Profile = iota
	// ProfileFast is the reduced scale used by tests and examples: smaller
	// splits and fewer epochs, same structure.
	ProfileFast
)

// buildConfig accumulates the functional options before Build dispatches
// to a kind-specific backend.
type buildConfig struct {
	profile   Profile
	seed      *int64
	topology  *hec.Topology
	quantize  *bool
	quantMode *QuantMode
	uniMods   []func(*UnivariateOptions)
	multiMods []func(*MultivariateOptions)
}

// Option configures Build. Options apply in argument order on top of the
// selected profile's defaults, with the kind-specific escape hatches
// (WithUnivariate / WithMultivariate) running last so they can override
// anything.
type Option func(*buildConfig)

// WithProfile selects the build scale; the default is ProfileFull.
func WithProfile(p Profile) Option { return func(c *buildConfig) { c.profile = p } }

// WithFast is shorthand for WithProfile(ProfileFast).
func WithFast() Option { return WithProfile(ProfileFast) }

// WithSeed pins the one seed that drives the whole build: dataset
// generation, model initialisation and policy training all derive their
// streams from it, so equal seeds build bit-identical systems.
func WithSeed(seed int64) Option { return func(c *buildConfig) { c.seed = &seed } }

// WithTopology overrides the HEC testbed model (device compute curves and
// link latencies) the system is calibrated against.
func WithTopology(t hec.Topology) Option { return func(c *buildConfig) { c.topology = &t } }

// WithQuantize toggles compression of the IoT and edge models before
// deployment (the paper's constrained-hardware step; default on). The
// precision tier defaults to FP16; see WithQuantMode.
func WithQuantize(q bool) Option { return func(c *buildConfig) { c.quantize = &q } }

// WithQuantMode selects the precision tier (QuantFP16 or QuantInt8) used
// when quantization is on. It does not itself enable quantization —
// combine with WithQuantize(true) or rely on the default-on profiles.
func WithQuantMode(m QuantMode) Option { return func(c *buildConfig) { c.quantMode = &m } }

// WithUnivariate applies fn to the assembled UnivariateOptions just before
// the build runs — the escape hatch for knobs without a first-class
// Option. fn is ignored for Multivariate builds.
func WithUnivariate(fn func(*UnivariateOptions)) Option {
	return func(c *buildConfig) { c.uniMods = append(c.uniMods, fn) }
}

// WithMultivariate applies fn to the assembled MultivariateOptions just
// before the build runs; ignored for Univariate builds.
func WithMultivariate(fn func(*MultivariateOptions)) Option {
	return func(c *buildConfig) { c.multiMods = append(c.multiMods, fn) }
}

// Build constructs a complete HEC anomaly-detection system of the given
// kind: synthetic dataset, the three-tier detector suite, deployment over
// the topology, REINFORCE policy training, and test-split precomputation.
// It is the one entry point for both kinds:
//
//	sys, err := repro.Build(repro.Univariate, repro.WithFast(), repro.WithSeed(7))
//
// The returned System regenerates the paper's tables (ModelRows,
// SchemeRows) and opens streaming detection sessions (Open).
func Build(kind Kind, opts ...Option) (*System, error) {
	return BuildContext(context.Background(), kind, opts...)
}

// override applies the kind-independent knobs onto the fields the two
// option structs share, keeping the per-kind assembly below down to "pick
// profile, override, run mods". Both structs wire the one seed into the
// dataset and the model streams, like the hecbench -seed flag always did.
func (c *buildConfig) override(seed, dataSeed *int64, topology *hec.Topology, quantize *bool, quantMode *QuantMode) {
	if c.seed != nil {
		*seed = *c.seed
		*dataSeed = *c.seed
	}
	if c.topology != nil {
		*topology = *c.topology
	}
	if c.quantize != nil {
		*quantize = *c.quantize
	}
	if c.quantMode != nil {
		*quantMode = *c.quantMode
	}
}

// effectiveQuantMode maps the options structs' zero value to the paper's
// FP16 tier, preserving the historical Quantize=true behaviour.
func effectiveQuantMode(m QuantMode) QuantMode {
	if m == nn.QuantNone {
		return nn.QuantFP16
	}
	return m
}

// BuildContext is Build with cancellation: a done ctx aborts the build at
// the next stage boundary (between tier trainings, or inside either
// precompute pass) and returns an error satisfying errors.Is against both
// the repro taxonomy (ErrCanceled / ErrDeadline) and ctx.Err().
func BuildContext(ctx context.Context, kind Kind, opts ...Option) (*System, error) {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	switch kind {
	case Univariate:
		opt := DefaultUnivariateOptions()
		if cfg.profile == ProfileFast {
			opt = fastUnivariateOptions()
		}
		cfg.override(&opt.Seed, &opt.Data.Seed, &opt.Topology, &opt.Quantize, &opt.QuantMode)
		for _, fn := range cfg.uniMods {
			fn(&opt)
		}
		return buildUnivariate(ctx, opt)
	case Multivariate:
		opt := DefaultMultivariateOptions()
		if cfg.profile == ProfileFast {
			opt = fastMultivariateOptions()
		}
		cfg.override(&opt.Seed, &opt.Data.Seed, &opt.Topology, &opt.Quantize, &opt.QuantMode)
		for _, fn := range cfg.multiMods {
			fn(&opt)
		}
		return buildMultivariate(ctx, opt)
	default:
		return nil, badInput("build", "unknown kind %v (want Univariate or Multivariate)", kind)
	}
}
