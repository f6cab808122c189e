// Package raster re-creates the raster.DefectScore bug fixed in commit
// f69f887: dithered pixels were compared with the ideal value by float
// equality.
package raster

type Bitmap struct{ Pix []float64 }

// DefectScore is the buggy comparison.
func DefectScore(gray, dithered *Bitmap) float64 {
	feature, bad := 0, 0
	for i := range gray.Pix {
		ideal := 0.0
		if gray.Pix[i] >= 0.5 {
			ideal = 1
		}
		if ideal == 1 { // catch: floateq
			feature++
		}
		if dithered.Pix[i] != ideal { // catch: floateq
			bad++
		}
	}
	if feature == 0 {
		return 0
	}
	return float64(bad) / float64(feature)
}

// DefectScoreFixed is the commit's fix: on-ness compared as booleans.
func DefectScoreFixed(gray, dithered *Bitmap) float64 {
	feature, bad := 0, 0
	for i := range gray.Pix {
		idealOn := gray.Pix[i] >= 0.5
		ditheredOn := dithered.Pix[i] >= 0.5
		if idealOn {
			feature++
		}
		if ditheredOn != idealOn {
			bad++
		}
	}
	if feature == 0 {
		return 0
	}
	return float64(bad) / float64(feature)
}
