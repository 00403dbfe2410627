package image

import "repro/internal/obs"

// mFlattenFills is the flatten-cache instrument on the obs default
// registry (see docs/observability.md): each fill pays the full tree
// materialisation of one layer chain.
var mFlattenFills = obs.NewCounter("ch_image_flatten_fills_total",
	"Flatten-cache misses materialised from scratch.")
