package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{EmbeddingModel, NodeNames, Tokenization}

import scala.util.Random

/** Stand-in for fastText pre-trained vectors (DESIGN.md §3).
  *
  * A real pre-trained space gives the paper's baselines exactly two
  * properties: (1) string/subword-similar tokens have correlated vectors
  * (fastText composes character n-gram vectors), and (2) the space knows
  * *nothing* about the co-occurrence structure of the dataset at hand. We
  * reproduce both: every character n-gram (3..5) hashes to a fixed random
  * Gaussian vector and a token's vector is the normalized sum over its
  * n-grams — deterministic, vocabulary-independent, dataset-agnostic.
  *
  * Tuple/attribute vectors (needed to run ER/SM with pre-trained spaces)
  * are averaged from token vectors, which is how DeepER/DeepMatcher and the
  * paper's fastText baseline compose non-vocabulary units.
  */
object PretrainedEmbeddings {

  val DefaultDim = 64

  private def gramVector(gram: String, dim: Int): Array[Float] = {
    val rng = new Random(gram.hashCode.toLong * 2_654_435_761L)
    Array.fill(dim)(rng.nextGaussian().toFloat)
  }

  /** Vector of a single word (no '_' inside). */
  private def wordVector(word: String, dim: Int): Array[Float] = {
    val padded = s"<$word>"
    val grams = (3 to 5).flatMap(n => padded.sliding(n).toSeq) :+ padded
    val acc = new Array[Float](dim)
    grams.foreach { g =>
      val v = gramVector(g, dim)
      var i = 0; while (i < dim) { acc(i) += v(i); i += 1 }
    }
    EmbeddingModel.normalize(acc)
  }

  /** Vector of an arbitrary token; multi-word tokens (joined by '_') are the
    * average of their word vectors. Never OOV — like fastText. */
  def tokenVector(token: String, dim: Int = DefaultDim): Array[Float] = {
    val words = token.split('_').filter(_.nonEmpty)
    if (words.isEmpty) return new Array[Float](dim)
    val acc = new Array[Float](dim)
    words.foreach { w =>
      val v = wordVector(w, dim)
      var i = 0; while (i < dim) { acc(i) += v(i); i += 1 }
    }
    EmbeddingModel.normalize(acc)
  }

  /** Materialise a model over all tokens of the datasets plus composed
    * RID/CID vectors, so the unsupervised SM/ER algorithms can run on the
    * "pre-trained" space unchanged. */
  def forDatasets(datasets: Seq[DataFrame], strategy: Tokenization.Strategy,
                  dim: Int = DefaultDim): EmbeddingModel = {
    val entries = scala.collection.mutable.LinkedHashMap.empty[String, Array[Float]]
    datasets.zipWithIndex.foreach { case (df, i) =>
      val dsIdx = i + 1
      val dataCols = Tokenization.dataColumns(df)
      val colAcc = dataCols.map(c => c -> new Array[Float](dim)).toMap
      df.collect().foreach { r =>
        val rid = r.getAs[Long]("__rid")
        val rowAcc = new Array[Float](dim)
        var any = false
        dataCols.foreach { c =>
          Option(r.getAs[Any](c)).foreach { v =>
            Tokenization.tokens(v.toString, strategy).foreach { tok =>
              val tv = entries.getOrElseUpdate(tok, tokenVector(tok, dim))
              var k = 0; while (k < dim) { rowAcc(k) += tv(k); colAcc(c)(k) += tv(k); k += 1 }
              any = true
            }
          }
        }
        if (any) entries(NodeNames.rid(rid)) = EmbeddingModel.normalize(rowAcc)
      }
      dataCols.foreach { c =>
        entries(NodeNames.cid(dsIdx, c)) = EmbeddingModel.normalize(colAcc(c))
      }
    }
    EmbeddingModel(entries.toSeq)
  }
}
