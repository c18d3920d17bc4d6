"""Multi-body rigid registration of vertebra models to depth-sensor data.

The package covers the full desk-scale loop: synthetic scene and recording
generation (``sim``), oracle segmentation (``maskgen``), depth/point-cloud
plumbing (``cloud``), staged ICP registration with gated real-time updates
(``register``), stereo tool tracking (``track``), clinical outcome metrics
(``metrics``), on-disk formats (``formats``), pose telemetry (``stream``)
and a CLI (``cli``).
"""

from .cloud import CameraIntrinsics
from .geom import RigidTransform, geodesic_angle, umeyama
from .register import RegistrationConfig, ScrewPlan, VertebraModel

__all__ = [
    "CameraIntrinsics",
    "RigidTransform",
    "RegistrationConfig",
    "ScrewPlan",
    "VertebraModel",
    "geodesic_angle",
    "umeyama",
]

__version__ = "0.1.0"
