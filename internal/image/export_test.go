package image

// TreeBuilds reports how many seeded chains have had their tree built by
// a first Flatten — the unpack FlattenFills does not count.
func (s *Store) TreeBuilds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.trees
}
