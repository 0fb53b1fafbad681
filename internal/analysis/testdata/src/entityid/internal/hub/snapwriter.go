package hub

type manifest struct {
	Tables [][2]int32 `json:"mt"` // want `holds "\\"mt\\"": a snapshot stores`
}

// Silent: "mt" only as part of a longer word.
const format = "fmt"
