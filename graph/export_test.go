package graph

// Export the block images built for the fuzz corpus, and the corruption
// helper, to the external tests that run engines over them.
var (
	UndirectedSeedImage = undirectedSeedImage
	HostileVIDImage     = hostileVIDImage
	FlipBlockBytes      = flipBlockBytes
)
