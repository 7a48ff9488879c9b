package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// assertSystemsEquivalent checks that two builds which claim equivalence
// produce identical Table I and Table II output, down to the bit.
func assertSystemsEquivalent(t *testing.T, a, b *System) {
	t.Helper()
	am := a.ModelRows()
	bm := b.ModelRows()
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("ModelRows diverge:\n  a: %+v\n  b: %+v", am, bm)
	}
	ar, err := a.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ar, br) {
		t.Fatalf("SchemeRows diverge:\n  a: %+v\n  b: %+v", ar, br)
	}
}

// TestWithSeedWiresDataAndModels pins WithSeed: it must drive both the
// dataset and the model streams (like the hecbench -seed flag always did),
// so it builds exactly what setting both seeds through WithUnivariate does.
func TestWithSeedWiresDataAndModels(t *testing.T) {
	viaSeed, err := Build(Univariate, WithFast(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	viaOptions, err := Build(Univariate, WithFast(), WithUnivariate(func(o *UnivariateOptions) {
		o.Seed = 5
		o.Data.Seed = 5
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertSystemsEquivalent(t, viaSeed, viaOptions)
}

// TestBuildInvalidDataConfig pins the taxonomy on configuration failures:
// a build rejected by the dataset generator surfaces as ErrBadInput inside
// a *Error, per the package contract.
func TestBuildInvalidDataConfig(t *testing.T) {
	_, err := Build(Univariate, WithFast(), WithUnivariate(func(o *UnivariateOptions) {
		o.Data.TrainWeeks = -1
	}))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err %T is not a *repro.Error", err)
	}
}

// TestBuildUnknownKind rejects kinds outside the enum with ErrBadInput.
func TestBuildUnknownKind(t *testing.T) {
	_, err := Build(Kind(42))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err %T is not a *repro.Error", err)
	}
}

// TestBuildContextPreCancelled aborts a build before any training happens:
// the error must satisfy the repro taxonomy and the ctx idiom, and come
// back promptly.
func TestBuildContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := BuildContext(ctx, Univariate, WithFast())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled build took %v", elapsed)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
}

// TestBuildContextDeadline does the same for an expired deadline.
func TestBuildContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := BuildContext(ctx, Univariate, WithFast())
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
	}
}
