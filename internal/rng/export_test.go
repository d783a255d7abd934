package rng

// Internals for the external gap-sampler tests, which import workload
// (and so cannot live in package rng).
var (
	GeoDenominator = geoDenominator
	GeoTableFor    = geoTableFor
	GeoSample      = geoSample
	GeoExact       = geoExact
	GeoLog         = geoLog
)

const (
	GeoBuckets = geoBuckets
	GeoShift   = geoShift
	GeoMiss    = geoMiss
)
