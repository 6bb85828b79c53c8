package wire

// Scans reports whether DecodeStrict's scanner itself, rather than
// encoding/json, accepts body into dst.
func Scans(body []byte, dst any) bool {
	d := &decoder{data: body}
	return d.scan(dst)
}

// EncodeFloats are the float edges the codec tests encode.
var EncodeFloats = encodeFloats
