package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{CompactGraph, EmbeddingTrainer, Node2VecWalker, Walks}

/** The Node2Vec baseline of §7: node2vec's second-order walks over the same
  * tripartite graph ("given our graph as input, it learns vectors for all
  * nodes"), then the same Word2Vec training. Default p = q = 1 as in the
  * node2vec paper's defaults.
  */
object Node2VecEmbeddings {

  final case class Config(
      n2v: Node2VecWalker.N2VConfig = Node2VecWalker.N2VConfig(),
      w2v: EmbeddingTrainer.W2VConfig = EmbeddingTrainer.W2VConfig(),
  )

  def train(spark: SparkSession, graph: CompactGraph, cfg: Config): Walks.Trained =
    Walks.walkAndTrain(Node2VecWalker.corpus(spark, graph, cfg.n2v), cfg.w2v)
}
