package transport

// mix64 hashes a pair of values into one splitmix64 output. Fault
// schedules use it to derive independent per-operation decisions from
// one seed without shared mutable PRNG state; math/rand is lint-banned
// here (seclint weakrand) and crypto/rand would make the schedules
// unreproducible. Never used for key material, nonces or anything a
// protocol peer observes as a security value.
func mix64(a, b uint64) uint64 {
	z := a ^ (b * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
