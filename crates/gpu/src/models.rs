//! DL model zoo: layer-level FLOP/parameter accounting for every network the
//! paper evaluates (training: LeNet-5, AlexNet, ResNet-18; inference:
//! GoogLeNet, VGG-16, ResNet-50).
//!
//! Models are described layer by layer from their published architectures;
//! totals are *computed*, and unit tests pin them to the literature values
//! (e.g. VGG-16 ≈ 15.5 GMACs, ResNet-50 ≈ 4.1 GMACs). The timing model in
//! [`crate::timing`] prices kernels from these totals.

/// One computational layer, reduced to what the timing model needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Descriptive name ("conv1", "inception4a.3x3", …).
    pub name: String,
    /// Multiply-accumulate operations per image.
    pub macs: u64,
    /// Learnable parameters.
    pub params: u64,
    /// Output activation elements per image (memory-traffic estimate).
    pub activations: u64,
}

/// Convolution layer cost: `k×k` kernel, grouped, with explicit output
/// spatial size (taken from the architecture tables, avoiding stride/pad
/// inference errors).
fn conv(name: &str, in_ch: u64, out_ch: u64, k: u64, out_h: u64, out_w: u64, groups: u64) -> Layer {
    assert!(groups >= 1 && in_ch.is_multiple_of(groups) && out_ch.is_multiple_of(groups));
    let macs = k * k * (in_ch / groups) * out_ch * out_h * out_w;
    let params = k * k * (in_ch / groups) * out_ch + out_ch; // + bias
    Layer {
        name: name.into(),
        macs,
        params,
        activations: out_ch * out_h * out_w,
    }
}

/// Fully-connected layer cost.
fn fc(name: &str, in_features: u64, out_features: u64) -> Layer {
    Layer {
        name: name.into(),
        macs: in_features * out_features,
        params: in_features * out_features + out_features,
        activations: out_features,
    }
}

/// Parameter-free layer (pool / relu / lrn / concat): only activations.
fn act(name: &str, elements: u64) -> Layer {
    Layer {
        name: name.into(),
        macs: 0,
        params: 0,
        activations: elements,
    }
}

/// A complete network description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlModel {
    /// Network name as the paper uses it.
    pub name: String,
    /// Input (channels, height, width).
    pub input: (u32, u32, u32),
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl DlModel {
    /// Forward-pass FLOPs per image (2 FLOPs per MAC).
    pub(crate) fn forward_flops(&self) -> u64 {
        2 * self.layers.iter().map(|l| l.macs).sum::<u64>()
    }

    /// Total learnable parameters.
    pub(crate) fn params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Total activation elements per image.
    pub(crate) fn activations(&self) -> u64 {
        self.layers.iter().map(|l| l.activations).sum()
    }
}

/// The six benchmark networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelZoo {
    /// LeNet-5 on 28×28 grayscale (trained on MNIST; paper Fig. 5a).
    LeNet5,
    /// AlexNet on 227×227 RGB (paper Figs. 2, 5b).
    AlexNet,
    /// ResNet-18 on 224×224 RGB (paper Fig. 5c).
    ResNet18,
    /// GoogLeNet on 224×224 RGB (paper Figs. 7a/8a/9a).
    GoogLeNet,
    /// VGG-16 on 224×224 RGB (paper Figs. 7b/8b/9b).
    Vgg16,
    /// ResNet-50 on 224×224 RGB (paper Figs. 7c/8c/9c).
    ResNet50,
}

impl ModelZoo {
    /// All models in paper order.
    pub fn all() -> [ModelZoo; 6] {
        [
            ModelZoo::LeNet5,
            ModelZoo::AlexNet,
            ModelZoo::ResNet18,
            ModelZoo::GoogLeNet,
            ModelZoo::Vgg16,
            ModelZoo::ResNet50,
        ]
    }

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelZoo::LeNet5 => "LeNet-5",
            ModelZoo::AlexNet => "AlexNet",
            ModelZoo::ResNet18 => "ResNet-18",
            ModelZoo::GoogLeNet => "GoogLeNet",
            ModelZoo::Vgg16 => "VGG-16",
            ModelZoo::ResNet50 => "ResNet-50",
        }
    }

    /// Builds the full layer description.
    pub fn model(self) -> DlModel {
        match self {
            ModelZoo::LeNet5 => lenet5(),
            ModelZoo::AlexNet => alexnet(),
            ModelZoo::ResNet18 => resnet18(),
            ModelZoo::GoogLeNet => googlenet(),
            ModelZoo::Vgg16 => vgg16(),
            ModelZoo::ResNet50 => resnet50(),
        }
    }

    /// Network input size (channels, height, width).
    pub fn input_dims(self) -> (u32, u32, u32) {
        match self {
            ModelZoo::LeNet5 => (1, 28, 28),
            ModelZoo::AlexNet => (3, 227, 227),
            _ => (3, 224, 224),
        }
    }

    /// Per-GPU batch size the paper uses for this model's experiment.
    pub fn paper_batch_size(self) -> u32 {
        match self {
            ModelZoo::LeNet5 => 512,
            ModelZoo::AlexNet => 256,
            ModelZoo::ResNet18 => 128,
            // Inference sweeps go up to 32 (64 for ResNet-50); this is the
            // largest point of Figs. 7–9.
            ModelZoo::GoogLeNet | ModelZoo::Vgg16 => 32,
            ModelZoo::ResNet50 => 64,
        }
    }
}

fn lenet5() -> DlModel {
    // Caffe's LeNet variant (the one NVCaffe trains on MNIST).
    DlModel {
        name: "LeNet-5".into(),
        input: (1, 28, 28),
        layers: vec![
            conv("conv1", 1, 20, 5, 24, 24, 1),
            act("pool1", 20 * 12 * 12),
            conv("conv2", 20, 50, 5, 8, 8, 1),
            act("pool2", 50 * 4 * 4),
            fc("ip1", 800, 500),
            act("relu1", 500),
            fc("ip2", 500, 10),
        ],
    }
}

fn alexnet() -> DlModel {
    // Krizhevsky et al. 2012 (Caffe single-GPU variant, grouped convs).
    DlModel {
        name: "AlexNet".into(),
        input: (3, 227, 227),
        layers: vec![
            conv("conv1", 3, 96, 11, 55, 55, 1),
            act("pool1", 96 * 27 * 27),
            conv("conv2", 96, 256, 5, 27, 27, 2),
            act("pool2", 256 * 13 * 13),
            conv("conv3", 256, 384, 3, 13, 13, 1),
            conv("conv4", 384, 384, 3, 13, 13, 2),
            conv("conv5", 384, 256, 3, 13, 13, 2),
            act("pool5", 256 * 6 * 6),
            fc("fc6", 9216, 4096),
            fc("fc7", 4096, 4096),
            fc("fc8", 4096, 1000),
        ],
    }
}

fn vgg16() -> DlModel {
    let mut layers = Vec::new();
    // (blocks of (convs, channels, spatial))
    let cfg: [(u64, u64, u64); 5] = [
        (2, 64, 224),
        (2, 128, 112),
        (3, 256, 56),
        (3, 512, 28),
        (3, 512, 14),
    ];
    let mut in_ch = 3u64;
    for (b, &(convs, ch, sp)) in cfg.iter().enumerate() {
        for c in 0..convs {
            layers.push(conv(
                &format!("conv{}_{}", b + 1, c + 1),
                in_ch,
                ch,
                3,
                sp,
                sp,
                1,
            ));
            in_ch = ch;
        }
        layers.push(act(&format!("pool{}", b + 1), ch * (sp / 2) * (sp / 2)));
    }
    layers.push(fc("fc6", 512 * 7 * 7, 4096));
    layers.push(fc("fc7", 4096, 4096));
    layers.push(fc("fc8", 4096, 1000));
    DlModel {
        name: "VGG-16".into(),
        input: (3, 224, 224),
        layers,
    }
}

/// ResNet basic block: two 3×3 convs (+ a 1×1 projection on downsampling).
fn basic_block(
    layers: &mut Vec<Layer>,
    name: &str,
    in_ch: u64,
    ch: u64,
    sp: u64,
    downsample: bool,
) {
    layers.push(conv(&format!("{name}.conv1"), in_ch, ch, 3, sp, sp, 1));
    layers.push(conv(&format!("{name}.conv2"), ch, ch, 3, sp, sp, 1));
    if downsample {
        layers.push(conv(&format!("{name}.proj"), in_ch, ch, 1, sp, sp, 1));
    }
}

fn resnet18() -> DlModel {
    let mut layers = vec![
        conv("conv1", 3, 64, 7, 112, 112, 1),
        act("pool1", 64 * 56 * 56),
    ];
    // (channels, spatial, blocks); first block of stages 2–4 downsamples.
    let stages: [(u64, u64, u64); 4] = [(64, 56, 2), (128, 28, 2), (256, 14, 2), (512, 7, 2)];
    let mut in_ch = 64u64;
    for (s, &(ch, sp, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let downsample = s > 0 && b == 0;
            basic_block(
                &mut layers,
                &format!("layer{}.{}", s + 1, b),
                in_ch,
                ch,
                sp,
                downsample,
            );
            in_ch = ch;
        }
    }
    layers.push(act("avgpool", 512));
    layers.push(fc("fc", 512, 1000));
    DlModel {
        name: "ResNet-18".into(),
        input: (3, 224, 224),
        layers,
    }
}

/// ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand (+ projection).
fn bottleneck(
    layers: &mut Vec<Layer>,
    name: &str,
    in_ch: u64,
    mid: u64,
    out_ch: u64,
    sp: u64,
    project: bool,
) {
    layers.push(conv(&format!("{name}.conv1"), in_ch, mid, 1, sp, sp, 1));
    layers.push(conv(&format!("{name}.conv2"), mid, mid, 3, sp, sp, 1));
    layers.push(conv(&format!("{name}.conv3"), mid, out_ch, 1, sp, sp, 1));
    if project {
        layers.push(conv(&format!("{name}.proj"), in_ch, out_ch, 1, sp, sp, 1));
    }
}

fn resnet50() -> DlModel {
    let mut layers = vec![
        conv("conv1", 3, 64, 7, 112, 112, 1),
        act("pool1", 64 * 56 * 56),
    ];
    // (mid, out, spatial, blocks)
    let stages: [(u64, u64, u64, u64); 4] = [
        (64, 256, 56, 3),
        (128, 512, 28, 4),
        (256, 1024, 14, 6),
        (512, 2048, 7, 3),
    ];
    let mut in_ch = 64u64;
    for (s, &(mid, out, sp, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            bottleneck(
                &mut layers,
                &format!("layer{}.{}", s + 1, b),
                in_ch,
                mid,
                out,
                sp,
                b == 0,
            );
            in_ch = out;
        }
    }
    layers.push(act("avgpool", 2048));
    layers.push(fc("fc", 2048, 1000));
    DlModel {
        name: "ResNet-50".into(),
        input: (3, 224, 224),
        layers,
    }
}

/// One GoogLeNet inception module (Szegedy et al. 2015, Table 1).
#[allow(clippy::too_many_arguments)]
fn inception(
    layers: &mut Vec<Layer>,
    name: &str,
    in_ch: u64,
    c1: u64,
    c3r: u64,
    c3: u64,
    c5r: u64,
    c5: u64,
    pp: u64,
    sp: u64,
) {
    layers.push(conv(&format!("{name}.1x1"), in_ch, c1, 1, sp, sp, 1));
    layers.push(conv(&format!("{name}.3x3r"), in_ch, c3r, 1, sp, sp, 1));
    layers.push(conv(&format!("{name}.3x3"), c3r, c3, 3, sp, sp, 1));
    layers.push(conv(&format!("{name}.5x5r"), in_ch, c5r, 1, sp, sp, 1));
    layers.push(conv(&format!("{name}.5x5"), c5r, c5, 5, sp, sp, 1));
    layers.push(conv(&format!("{name}.pool_proj"), in_ch, pp, 1, sp, sp, 1));
}

fn googlenet() -> DlModel {
    let mut layers = vec![
        conv("conv1", 3, 64, 7, 112, 112, 1),
        act("pool1", 64 * 56 * 56),
        conv("conv2.reduce", 64, 64, 1, 56, 56, 1),
        conv("conv2", 64, 192, 3, 56, 56, 1),
        act("pool2", 192 * 28 * 28),
    ];
    // (in, 1x1, 3x3r, 3x3, 5x5r, 5x5, pool_proj, spatial)
    let modules: [(&str, [u64; 7], u64); 9] = [
        ("3a", [192, 64, 96, 128, 16, 32, 32], 28),
        ("3b", [256, 128, 128, 192, 32, 96, 64], 28),
        ("4a", [480, 192, 96, 208, 16, 48, 64], 14),
        ("4b", [512, 160, 112, 224, 24, 64, 64], 14),
        ("4c", [512, 128, 128, 256, 24, 64, 64], 14),
        ("4d", [512, 112, 144, 288, 32, 64, 64], 14),
        ("4e", [528, 256, 160, 320, 32, 128, 128], 14),
        ("5a", [832, 256, 160, 320, 32, 128, 128], 7),
        ("5b", [832, 384, 192, 384, 48, 128, 128], 7),
    ];
    for (name, m, sp) in modules {
        inception(
            &mut layers,
            &format!("inception{name}"),
            m[0],
            m[1],
            m[2],
            m[3],
            m[4],
            m[5],
            m[6],
            sp,
        );
    }
    layers.push(act("avgpool", 1024));
    layers.push(fc("fc", 1024, 1000));
    DlModel {
        name: "GoogLeNet".into(),
        input: (3, 224, 224),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Literature MAC counts (per image, forward). Tolerances are generous
    /// enough to cover framework-variant differences (bias terms, LRN,
    /// projection variants) but tight enough to catch structural mistakes.
    fn assert_close(actual: u64, expected: f64, tol: f64, what: &str) {
        let ratio = actual as f64 / expected;
        assert!(
            (1.0 - tol..=1.0 + tol).contains(&ratio),
            "{what}: got {actual}, expected ≈{expected:.3e} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn lenet5_macs_and_params() {
        let m = ModelZoo::LeNet5.model();
        assert_close(m.forward_flops() / 2, 2.29e6, 0.10, "LeNet-5 MACs");
        assert_close(m.params(), 4.31e5, 0.05, "LeNet-5 params");
    }

    #[test]
    fn alexnet_macs_and_params() {
        let m = ModelZoo::AlexNet.model();
        assert_close(m.forward_flops() / 2, 7.24e8, 0.10, "AlexNet MACs");
        assert_close(m.params(), 6.1e7, 0.05, "AlexNet params");
    }

    #[test]
    fn vgg16_macs_and_params() {
        let m = ModelZoo::Vgg16.model();
        assert_close(m.forward_flops() / 2, 1.55e10, 0.05, "VGG-16 MACs");
        assert_close(m.params(), 1.38e8, 0.03, "VGG-16 params");
    }

    #[test]
    fn resnet18_macs_and_params() {
        let m = ModelZoo::ResNet18.model();
        assert_close(m.forward_flops() / 2, 1.82e9, 0.10, "ResNet-18 MACs");
        assert_close(m.params(), 1.17e7, 0.10, "ResNet-18 params");
    }

    #[test]
    fn resnet50_macs_and_params() {
        let m = ModelZoo::ResNet50.model();
        assert_close(m.forward_flops() / 2, 4.1e9, 0.10, "ResNet-50 MACs");
        assert_close(m.params(), 2.56e7, 0.10, "ResNet-50 params");
    }

    #[test]
    fn googlenet_macs_and_params() {
        let m = ModelZoo::GoogLeNet.model();
        assert_close(m.forward_flops() / 2, 1.5e9, 0.10, "GoogLeNet MACs");
        assert_close(m.params(), 7.0e6, 0.15, "GoogLeNet params");
    }

    #[test]
    fn relative_ordering_matches_folklore() {
        // VGG-16 is the heaviest; LeNet-5 the lightest; ResNet-50 > ResNet-18.
        let flops: Vec<u64> = ModelZoo::all()
            .iter()
            .map(|m| m.model().forward_flops())
            .collect();
        let [lenet, alex, r18, goog, vgg, r50] = flops[..] else {
            panic!()
        };
        assert!(vgg > r50 && r50 > r18 && r18 > alex && alex > lenet);
        assert!(goog < r18, "GoogLeNet is famously lean");
    }

    #[test]
    fn paper_batch_sizes() {
        assert_eq!(ModelZoo::LeNet5.paper_batch_size(), 512);
        assert_eq!(ModelZoo::AlexNet.paper_batch_size(), 256);
        assert_eq!(ModelZoo::ResNet18.paper_batch_size(), 128);
        assert_eq!(ModelZoo::ResNet50.paper_batch_size(), 64);
    }

    #[test]
    fn all_layers_have_positive_activations() {
        for zoo in ModelZoo::all() {
            let m = zoo.model();
            assert!(!m.layers.is_empty());
            for l in &m.layers {
                assert!(l.activations > 0, "{}: {}", m.name, l.name);
            }
        }
    }
}
