"""Style/content separation networks with a self-contained autodiff engine."""

from stylemix.autodiff import ChannelStats, Graph, Tensor

__version__ = "0.1.0"

__all__ = ["ChannelStats", "Graph", "Tensor", "__version__"]
