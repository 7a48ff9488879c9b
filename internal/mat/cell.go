package mat

// LSTMCell finishes one LSTM step of one sequence in vector lanes, from unit
// 0 on in groups of four hidden units, and returns how many units it
// finished; the caller finishes the rest. c, h and tc are H long; z, zh and
// b are 4H long, gate blocks i, f, g, o of H each. For each unit j it
// finishes, with v = z + (zh + b) at that gate's position,
//
//	z[j], z[H+j], z[3H+j] = 1/(1+math.Exp(−v))   (i, f, o)
//	z[2H+j]              = math.Tanh(v)          (g)
//	c[j]  = f·c[j] + i·g                         (unfused)
//	tc[j] = math.Tanh(c[j]),  h[j] = o·tc[j]
//
// bit for bit. It runs under avx2 on a CPU with FMA, as ExpInto's vector
// path does, eight units at a time (four for a last odd group), and stops
// where fewer than four units remain or before eight (four) units in which a
// gate's exponential argument — −v, or 2|v| for g — is outside ±708 or not
// finite, or the previous c is above 353 in magnitude or not finite (which
// keeps the new c's exp(2|c|) in range), leaving them as they were.
// Everywhere else it returns 0. The output slices must not overlap one
// another or the inputs.
func LSTMCell(z, zh, b, c, h, tc []float64) int {
	H := len(c)
	z, zh, b, h, tc = z[:4*H], zh[:4*H], b[:4*H], h[:H], tc[:H]
	n := H &^ 3
	if n == 0 {
		return 0
	}
	return cellKernel(z, zh, b, c, h, tc, n)
}
