package mat

import "math"

// IEEE-754 binary16 conversion — the storage and wire format of the FP16
// tier. The paper compresses the IoT- and edge-deployed models from FP32 to
// FP16 and observes no detection-performance decrease; this file provides
// the canonical round-to-nearest-even conversion (with overflow to ±Inf and
// gradual underflow to subnormals), which nn.QuantizeParams rounds weights
// through and the model codec writes on the wire.

// Float16Bits converts a float64 to its nearest IEEE-754 binary16 bit
// pattern.
func Float16Bits(f float64) uint16 {
	b := math.Float64bits(f)
	sign := uint16((b >> 48) & 0x8000)
	exp := int((b>>52)&0x7FF) - 1023
	frac := b & 0xFFFFFFFFFFFFF

	switch {
	case math.IsNaN(f):
		return sign | 0x7E00
	case math.IsInf(f, 0):
		return sign | 0x7C00
	}
	// Normalised binary16 exponent range: [-14, 15].
	if exp > 15 {
		return sign | 0x7C00 // overflow to infinity
	}
	if exp >= -14 {
		// Round the 52-bit fraction to 10 bits, to nearest even.
		mant := frac >> 42
		rem := frac & ((1 << 42) - 1)
		half := uint64(1) << 41
		if rem > half || (rem == half && mant&1 == 1) {
			mant++
			if mant == 1<<10 { // mantissa overflow bumps the exponent
				mant = 0
				exp++
				if exp > 15 {
					return sign | 0x7C00
				}
			}
		}
		return sign | uint16((exp+15)<<10) | uint16(mant)
	}
	// Subnormal range: value = frac16 · 2^-24.
	if exp < -25 {
		return sign // rounds to zero
	}
	// Implicit leading 1 becomes explicit; shift into position.
	mant := (frac | (1 << 52)) >> 42 // 11-bit mantissa with leading 1
	shift := uint(-14 - exp)
	rounded := mant >> shift
	rem := mant & ((1 << shift) - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && rounded&1 == 1) {
		rounded++
	}
	return sign | uint16(rounded)
}

// Float16From converts a binary16 bit pattern back to float64 exactly.
func Float16From(bits uint16) float64 {
	sign := float64(1)
	if bits&0x8000 != 0 {
		sign = -1
	}
	exp := int((bits >> 10) & 0x1F)
	mant := float64(bits & 0x3FF)
	switch exp {
	case 0:
		return sign * mant * math.Pow(2, -24)
	case 31:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * (1 + mant/1024) * math.Pow(2, float64(exp-15))
	}
}

// QuantizeFP16 rounds v through binary16 and back.
func QuantizeFP16(v float64) float64 { return Float16From(Float16Bits(v)) }
