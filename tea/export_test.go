package tea

import "teasim/internal/pipeline"

// WithPipe returns c with fn editing its pipeline configuration, so the
// external tests can switch a fast path off and compare it with its
// reference path.
func WithPipe(c Config, fn func(*pipeline.Config)) Config {
	c.pipe = fn
	return c
}
