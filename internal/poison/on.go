//go:build poison

package poison

// On reports that the engines poison the storage they reuse.
const On = true
