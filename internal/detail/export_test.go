package detail

// Arena is the scratch a Router borrows for each run, exported to the
// external tests so they can route several chips on one arena.
type Arena = searchCtx

// Use binds a to r for every later run instead of pooled scratch.
func (r *Router) Use(a *Arena) *Router {
	r.bind(a)
	return r
}
