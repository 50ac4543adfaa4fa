"""Synthesize scenes and look at the engineered feature targets.

Generates one multispectral and one SAR scene, computes the four feature
families (NDI, HOG, Canny, dense SIFT), and writes PPM previews you can open
with any image viewer.

    python3 demos/02_feature_targets.py
"""

import os

from fgmae import data as D
from fgmae import features as F
from fgmae.model import render_hog_glyphs, render_sar_composite

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# -- scenes ------------------------------------------------------------------

ms, ms_mask, ms_labels = D.synth_multispectral_scene(0, 64)
sar, sar_mask, sar_label = D.synth_sar_scene(0, 64, looks=1)
print(f"MS scene {ms.shape}, multilabel vector: {ms_labels}")
print(f"SAR scene {sar.shape}, class id: {int(sar_label.argmax())}")

# -- normalized difference indices (vegetation, water, built-up; MS bands) ---

ndi = F.compute_ndi(ms[None])           # (1, 3, H, W) in [-1, 1]
print(f"NDI range: [{ndi.min():.3f}, {ndi.max():.3f}]")

# -- oriented gradient histograms on the SAR channels ------------------------

hog = F.compute_hog(sar[None], F.HogParams(cell_size=4))
print(f"HOG field: {hog.shape}  (B, C, cells_h, cells_w, bins)")
D.write_ppm(os.path.join(OUT, "hog_glyphs.ppm"), render_hog_glyphs(hog[0, 0]))

# -- Canny edges, one map per band -------------------------------------------

edges = F.compute_canny(ms[None])
print(f"Canny edge density: {edges.mean():.3f}")

# -- dense SIFT descriptor grid ----------------------------------------------

sift = F.compute_dense_sift(ms[None])
print(f"dense SIFT: {sift.shape}  (B, grid points, 128)")

# -- per-patch training targets as the pretrainer sees them ------------------

spec = F.FeatureSpec("hog", hog=F.HogParams(cell_size=4))
targets = F.assemble_targets(sar[None], spec, patch_size=8)
print(f"HOG targets per 8x8 patch: {targets['hog'].shape}")

D.write_ppm(os.path.join(OUT, "sar_scene.ppm"),
            render_sar_composite(sar[None])[0])
print(f"previews written to {OUT}/")
