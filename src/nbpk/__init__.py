"""nbpk: a desk-scale sensor-streaming bridge toolkit.

Streams camera and motion data from an emulated robot over UDP, reassembles
fragmented frames with a preemptive drop policy, publishes them on a typed
in-process topic bus, records/replays datasets, benchmarks delivery against
the analytic loss model, and does the rigid-body math for add-on payloads.
"""

from .wire import (
    DEFAULT_FRAG_PAYLOAD,
    DEFAULT_JOINT_COUNT,
    HEADER_SIZE,
    MAGIC,
    MAX_IMAGE_BYTES,
    UDP_MAX_DATAGRAM,
    WIRE_VERSION,
    BadMagicError,
    BadVersionError,
    Encoding,
    Image,
    ImageStartMeta,
    InvariantError,
    MotionMode,
    MotionReading,
    MotionRequest,
    PacketHeader,
    PacketKind,
    StreamId,
    TooShortError,
    WireError,
    decode_header,
    decode_motion,
    decode_request,
    decode_start_meta,
    encode_header,
    encode_motion,
    encode_request,
    encode_start_meta,
)
from .fragment import (
    Dropped,
    Duplicate,
    ImageComplete,
    Orphan,
    Packet,
    Reassembler,
    StreamStats,
    packetize_image,
    packetize_single,
)
from .channel import (
    DEFAULT_COMMAND_PORT,
    DEFAULT_IMAGE_PORT,
    DEFAULT_MOTION_PORT,
    EndpointConfig,
    ImpairmentConfig,
    SplitMix64,
    StreamImpairer,
    TruncatedDatagramError,
    UdpEndpoint,
    impair,
)
from .robotsim import (
    RobotConfig,
    RobotSim,
    WalkState,
    apply_command,
    gen_motion,
    gen_test_image,
    step,
    verify_test_image,
)
from .bridge import (
    TOPIC_COMMAND,
    TOPIC_IMAGE,
    TOPIC_MOTION,
    TOPIC_STATS,
    BoundedFifo,
    Bridge,
    BridgeConfig,
    BridgeStats,
    CameraFrame,
    Subscription,
    TopicBus,
)
from .recorder import (
    LogRecord,
    LogWriter,
    Truncated,
    export_ppm,
    read_log,
    record,
    replay,
    yuv422_to_rgb,
)
from .bench import (
    Report,
    Scenario,
    analytic_delivery,
    packets_per_frame,
    run_loopback,
    run_scenario,
    write_report,
)
from .inertial import (
    RigidBody,
    bundled_backpack_body,
    com_shift,
    compose,
    load_bodies,
    parallel_axis,
    validate_inertia,
)

__version__ = "0.1.0"
