package brew

// CollideWorldHashes makes every known-world hash zero until the returned
// function is called: with the hash saying nothing, only the structural
// comparison keeps different worlds' translations apart. Tests that use it
// must not run in parallel with other rewrites.
func CollideWorldHashes() (restore func()) {
	worldHashMask = 0
	return func() { worldHashMask = ^uint64(0) }
}
