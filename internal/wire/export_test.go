package wire

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// AppendCacheVerdict appends a CacheFlag CHECK response payload: one
// byte with bit 0 allow, bit 1 cacheable.
func AppendCacheVerdict(dst []byte, allowed, cacheable bool) []byte {
	var v byte
	if allowed {
		v |= cacheVerdictAllow
	}
	if cacheable {
		v |= cacheVerdictCacheable
	}
	return append(dst, v)
}
