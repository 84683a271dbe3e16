package shape

// Fig5e exposes the Figure 5 instance to the external tests of this package.
const Fig5e = fig5e
