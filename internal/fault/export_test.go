package fault

// Intn draws from g's stream, so the reference copy of the old
// population draw in population_test.go replays the same RNG calls.
func (g *Generator) Intn(n int) int { return g.rng.Intn(n) }
