//! Typed DNN layers with parameter and compute accounting.
//!
//! A layer is the schedulable unit the paper calls a kernel (§2.2). The
//! reproduction never executes real tensor math; what matters for Nexus is
//! each layer's *identity* (for prefix hashing), *parameter bytes* (GPU
//! memory, load time) and *FLOPs* (execution cost attribution between a
//! shared prefix and per-model suffixes).

use serde::{Deserialize, Serialize};

use crate::hashfn::Fnv1a;

/// The operator a layer computes.
///
/// Structural parameters are part of the schema identity: two `Conv` layers
/// with different channel counts can never be batched together.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerKind {
    /// Input placeholder with `[channels, height, width]` shape.
    Input {
        /// Input channels.
        channels: u32,
        /// Input height in pixels.
        height: u32,
        /// Input width in pixels.
        width: u32,
    },
    /// 2-D convolution.
    Conv {
        /// Output channels.
        out_channels: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
    },
    /// Fully-connected (dense) layer.
    Fc {
        /// Output features.
        out_features: u32,
    },
    /// Max/avg pooling.
    Pool {
        /// Square window size.
        window: u32,
    },
    /// A residual block (conv + shortcut), collapsed to one node.
    ResidualBlock {
        /// Output channels.
        out_channels: u32,
    },
    /// An inception-style multi-branch block, collapsed to one node.
    InceptionBlock {
        /// Total output channels across branches.
        out_channels: u32,
    },
    /// Detection head (anchor generation + box regression).
    DetectionHead {
        /// Number of object classes.
        classes: u32,
    },
    /// Classification softmax over `classes` outputs.
    Softmax {
        /// Number of classes.
        classes: u32,
    },
}

impl LayerKind {
    /// Feeds the structural identity of the operator into `hasher`.
    fn hash_structure(&self, hasher: &mut Fnv1a) {
        match *self {
            LayerKind::Input {
                channels,
                height,
                width,
            } => {
                hasher.write(b"input");
                hasher.write_u32(channels);
                hasher.write_u32(height);
                hasher.write_u32(width);
            }
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
            } => {
                hasher.write(b"conv");
                hasher.write_u32(out_channels);
                hasher.write_u32(kernel);
                hasher.write_u32(stride);
            }
            LayerKind::Fc { out_features } => {
                hasher.write(b"fc");
                hasher.write_u32(out_features);
            }
            LayerKind::Pool { window } => {
                hasher.write(b"pool");
                hasher.write_u32(window);
            }
            LayerKind::ResidualBlock { out_channels } => {
                hasher.write(b"res");
                hasher.write_u32(out_channels);
            }
            LayerKind::InceptionBlock { out_channels } => {
                hasher.write(b"incep");
                hasher.write_u32(out_channels);
            }
            LayerKind::DetectionHead { classes } => {
                hasher.write(b"det");
                hasher.write_u32(classes);
            }
            LayerKind::Softmax { classes } => {
                hasher.write(b"softmax");
                hasher.write_u32(classes);
            }
        }
    }
}

/// One layer of a model schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// The operator.
    pub kind: LayerKind,
    /// Weight bytes held by this layer.
    pub param_bytes: u64,
    /// Forward-pass compute per input, in GFLOPs.
    pub gflops: f64,
    /// Identity of the layer's trained weights. Transfer learning re-trains
    /// a layer: same structure, new `param_version` — such layers can NOT be
    /// batched together.
    pub param_version: u64,
}

impl Layer {
    /// Creates a layer with version-0 (base training) weights.
    pub fn new(kind: LayerKind, param_bytes: u64, gflops: f64) -> Self {
        Layer {
            kind,
            param_bytes,
            gflops,
            param_version: 0,
        }
    }

    /// Feeds the full identity (structure + weights) into `hasher`.
    ///
    /// Two layers hash equal iff they can execute as one batched kernel:
    /// identical operator, shape, weight footprint, and trained weights.
    /// Parameter bytes and FLOPs stand in for the weight tensor contents,
    /// which this reproduction does not materialize.
    pub(crate) fn hash_identity(&self, hasher: &mut Fnv1a) {
        self.kind.hash_structure(hasher);
        hasher.write_u64(self.param_bytes);
        hasher.write_u64(self.gflops.to_bits());
        hasher.write_u64(self.param_version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(layer: &Layer) -> u64 {
        let mut h = Fnv1a::new();
        layer.hash_identity(&mut h);
        h.finish()
    }

    #[test]
    fn identical_layers_hash_equal() {
        let a = Layer::new(LayerKind::Fc { out_features: 10 }, 4_000, 0.001);
        let b = Layer::new(LayerKind::Fc { out_features: 10 }, 4_000, 0.001);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn different_shapes_hash_differently() {
        let a = Layer::new(LayerKind::Fc { out_features: 10 }, 4_000, 0.001);
        let b = Layer::new(LayerKind::Fc { out_features: 11 }, 4_000, 0.001);
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn retrained_weights_hash_differently() {
        let a = Layer::new(LayerKind::Fc { out_features: 10 }, 4_000, 0.001);
        let mut b = a.clone();
        b.param_version = 1;
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn operator_kinds_are_distinguished() {
        let conv = Layer::new(
            LayerKind::Conv {
                out_channels: 8,
                kernel: 3,
                stride: 1,
            },
            1_000,
            0.01,
        );
        let pool = Layer::new(LayerKind::Pool { window: 3 }, 0, 0.0);
        assert_ne!(hash_of(&conv), hash_of(&pool));
    }
}
