//! Fleet manifest emission: split one compiled [`ChipImage`] into
//! per-chip shard images plus the router's routing/glue manifest.
//!
//! The sharding unit is the macro's 32-row accumulation **chunk** (see
//! [`ShardSpec`]): a shard image carries the full weights — they are
//! tiny and plane packing is content-addressed anyway — plus the chunk
//! ranges its chip answers partial-MAC requests for. The
//! [`FleetManifest`] gives the router everything it needs to finish a
//! layer digitally from gathered i64 partial sums (per-layer `w_scale`
//! and bias), to route by content (per-shard image digests), and to
//! admit replicas (architecture + executor settings); the analog MACs
//! themselves only ever run on the replicas.

use crate::image::{ChipImage, ImcSettings, MlpArch, ShardSpec};
use crate::CompileError;
use serde::{Deserialize, Serialize};

/// Current fleet-manifest format version.
pub const FLEET_FORMAT_VERSION: u32 = 1;

/// Digital (post-ADC) glue of one MAC layer, mirrored out of the image
/// so the router needs no weight data at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetLayer {
    /// Layer name (`fc1`, `fc2`, ...).
    pub name: String,
    /// Fan-in (rows) of the MAC.
    pub fan: usize,
    /// Output columns.
    pub out_features: usize,
    /// Total 32-row accumulation chunks (the shardable unit).
    pub chunks: usize,
    /// Weight dequantization scale (`effective.scale`).
    pub w_scale: f32,
    /// Per-output bias, applied after dequantization.
    pub bias: Vec<f32>,
}

/// One shard of the fleet: which image its replicas must serve and
/// which chunk ranges that image owns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetShard {
    /// Shard index (`0..shards.len()`).
    pub index: usize,
    /// File name of the shard's image (relative to the manifest).
    pub image: String,
    /// [`ChipImage::digest`] of that image — replicas reporting any
    /// other digest are quarantined at admission.
    pub digest: u64,
    /// Per MAC layer: the `[start, end)` global chunk range.
    pub layer_chunks: Vec<[usize; 2]>,
}

/// The router-side description of a sharded fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Format version ([`FLEET_FORMAT_VERSION`]).
    pub version: u32,
    /// Network architecture served by the fleet.
    pub arch: MlpArch,
    /// Executor settings (must match every shard image).
    pub imc: ImcSettings,
    /// Weight-init seed (provenance).
    pub weight_seed: u64,
    /// Digest of the unsharded base image the shards were cut from.
    pub base_digest: u64,
    /// Digital glue per MAC layer, in network order.
    pub layers: Vec<FleetLayer>,
    /// The shards, in index order.
    pub shards: Vec<FleetShard>,
}

impl FleetManifest {
    /// Structural validation: version, shard indices/coverage, layer
    /// agreement with the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::BadImage`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), CompileError> {
        if self.version != FLEET_FORMAT_VERSION {
            return Err(CompileError::BadImage(format!(
                "fleet manifest version {} (this build reads {FLEET_FORMAT_VERSION})",
                self.version
            )));
        }
        let shapes = self.arch.layer_shapes();
        if self.layers.len() != shapes.len() {
            return Err(CompileError::BadImage(format!(
                "{} glue layers for a {}-layer architecture",
                self.layers.len(),
                shapes.len()
            )));
        }
        let rows = self.imc.rows.max(1);
        for (li, (layer, shape)) in self.layers.iter().zip(&shapes).enumerate() {
            let chunks = shape.in_ch.div_ceil(rows);
            if layer.fan != shape.in_ch
                || layer.out_features != shape.out_ch
                || layer.chunks != chunks
                || layer.bias.len() != shape.out_ch
            {
                return Err(CompileError::BadImage(format!(
                    "glue layer {li} does not match the architecture"
                )));
            }
        }
        if self.shards.is_empty() {
            return Err(CompileError::BadImage("manifest lists no shards".into()));
        }
        // Every layer's chunks must be tiled exactly, in order, by the
        // shard ranges — no gap, no overlap, no stray coverage.
        for (li, layer) in self.layers.iter().enumerate() {
            let mut next = 0usize;
            for shard in &self.shards {
                let range = shard.layer_chunks.get(li).ok_or_else(|| {
                    CompileError::BadImage(format!(
                        "shard {} covers {} layers, manifest has {}",
                        shard.index,
                        shard.layer_chunks.len(),
                        self.layers.len()
                    ))
                })?;
                if range[0] != next || range[1] < range[0] {
                    return Err(CompileError::BadImage(format!(
                        "layer {li}: shard {} chunk range {}..{} leaves a gap at {next}",
                        shard.index, range[0], range[1]
                    )));
                }
                next = range[1];
            }
            if next != layer.chunks {
                return Err(CompileError::BadImage(format!(
                    "layer {li}: shards cover {next} of {} chunks",
                    layer.chunks
                )));
            }
        }
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.index != i {
                return Err(CompileError::BadImage(format!(
                    "shard {i} reports index {}",
                    shard.index
                )));
            }
        }
        Ok(())
    }

    /// Serializes to pretty JSON and writes `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &str) -> Result<(), CompileError> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CompileError::Io(format!("serialize fleet manifest: {e}")))?;
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| CompileError::Io(format!("write {path}: {e}")))
    }

    /// Loads and validates a fleet manifest from `path`.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, or invariant
    /// violations.
    pub fn load(path: &str) -> Result<Self, CompileError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CompileError::Io(format!("read {path}: {e}")))?;
        let m: Self = serde_json::from_str(&json)
            .map_err(|e| CompileError::BadImage(format!("parse {path}: {e}")))?;
        m.validate()?;
        Ok(m)
    }
}

/// Splits a compiled whole-model image into `count` shard images (even
/// contiguous chunk partition) plus the matching [`FleetManifest`].
/// The shard images differ from the base only in their [`ShardSpec`] —
/// and therefore in their digest, which is what stops a stale or
/// wrong-slice replica from being mixed into results.
///
/// # Errors
///
/// Fails if `count` is zero, the base image is already sharded, or the
/// base image is invalid.
pub fn shard_image(
    base: &ChipImage,
    count: usize,
    image_prefix: &str,
) -> Result<(Vec<ChipImage>, FleetManifest), CompileError> {
    if count == 0 {
        return Err(CompileError::BadImage(
            "shard count must be positive".into(),
        ));
    }
    if base.shard.is_some() {
        return Err(CompileError::BadImage(
            "cannot re-shard an already-sharded image".into(),
        ));
    }
    base.validate()?;
    let rows = base.imc.rows.max(1);
    let shapes = base.arch.layer_shapes();
    let layers: Vec<FleetLayer> = shapes
        .iter()
        .zip(&base.layers)
        .map(|(shape, layer)| FleetLayer {
            name: shape.name.clone(),
            fan: shape.in_ch,
            out_features: shape.out_ch,
            chunks: shape.in_ch.div_ceil(rows),
            w_scale: layer.effective.scale,
            bias: layer.bias.clone(),
        })
        .collect();
    let mut images = Vec::with_capacity(count);
    let mut shards = Vec::with_capacity(count);
    for index in 0..count {
        let spec = ShardSpec::even(layers.iter().map(|l| l.chunks), index, count);
        let mut img = base.clone();
        img.shard = Some(spec.clone());
        img.validate()?;
        shards.push(FleetShard {
            index,
            image: format!("{image_prefix}{index}.json"),
            digest: img.digest(),
            layer_chunks: spec.layer_chunks,
        });
        images.push(img);
    }
    let manifest = FleetManifest {
        version: FLEET_FORMAT_VERSION,
        arch: base.arch,
        imc: base.imc.clone(),
        weight_seed: base.weight_seed,
        base_digest: base.digest(),
        layers,
        shards,
    };
    manifest.validate()?;
    Ok((images, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use crate::wear::WearLedger;
    use neural::imc_exec::ImcDesign;

    fn base_image() -> ChipImage {
        let mut o = CompileOptions::new(
            MlpArch {
                features: 96,
                hidden: 40,
                classes: 6,
            },
            ImcDesign::ChgFe,
        );
        o.probe_count = 4;
        let mut ledger = WearLedger::fresh(o.geometry.banks);
        compile(&o, &mut ledger).unwrap().image
    }

    #[test]
    fn shard_images_tile_the_chunks_and_digests_separate() {
        let base = base_image();
        let (images, manifest) = shard_image(&base, 3, "shard_").unwrap();
        assert_eq!(images.len(), 3);
        manifest.validate().unwrap();
        // fc1: 96/32 = 3 chunks, fc2: 40/32 → 2 chunks.
        assert_eq!(manifest.layers[0].chunks, 3);
        assert_eq!(manifest.layers[1].chunks, 2);
        let mut digests: Vec<u64> = images.iter().map(ChipImage::digest).collect();
        digests.push(base.digest());
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 4, "every shard digest must be distinct");
        for (img, shard) in images.iter().zip(&manifest.shards) {
            assert_eq!(img.digest(), shard.digest);
            assert_eq!(img.shard.as_ref().unwrap().layer_chunks, shard.layer_chunks);
        }
    }

    #[test]
    fn manifest_rejects_gapped_or_overlapping_coverage() {
        let base = base_image();
        let (_, mut manifest) = shard_image(&base, 2, "s").unwrap();
        manifest.shards[1].layer_chunks[0][0] += 1; // gap in fc1
        assert!(manifest.validate().is_err());
        let (_, mut manifest) = shard_image(&base, 2, "s").unwrap();
        manifest.shards[0].layer_chunks[0][1] += 1; // overlap into shard 1
        assert!(manifest.validate().is_err());
    }

    #[test]
    fn sharded_images_round_trip_and_diff_reports_coverage() {
        let base = base_image();
        let (images, manifest) = shard_image(&base, 2, "shard_").unwrap();
        let dir = std::env::temp_dir().join(format!("fleet_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mpath = dir.join("fleet.json");
        manifest.save(mpath.to_str().unwrap()).unwrap();
        let loaded = FleetManifest::load(mpath.to_str().unwrap()).unwrap();
        assert_eq!(loaded, manifest);
        let ipath = dir.join("shard_0.json");
        images[0].save(ipath.to_str().unwrap()).unwrap();
        let img = ChipImage::load(ipath.to_str().unwrap()).unwrap();
        assert_eq!(img.digest(), manifest.shards[0].digest);
        // diff: shard vs whole-model and shard vs other shard.
        assert!(base.diff(&images[0]).iter().any(|l| l.contains("shard")));
        assert!(images[0]
            .diff(&images[1])
            .iter()
            .any(|l| l.contains("shard")));
        assert!(images[0].diff(&images[0]).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
